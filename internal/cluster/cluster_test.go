package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"

	"parajoin/internal/core"
	"parajoin/internal/partstore"
	"parajoin/internal/rel"
	"parajoin/internal/wire"
)

// A msg's Data travels as the frame's raw payload: the frame is the JSON
// header, the bytes and two length words, and Data comes back intact.
func TestMsgDataTravelsRaw(t *testing.T) {
	in := &msg{Type: msgFragRows, Data: bytes.Repeat([]byte{0xfe, 0}, 2048)}
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	header, err := json.Marshal(msg{Type: in.Type})
	if err != nil {
		t.Fatal(err)
	}
	if max := len(in.Data) + len(header) + 8; buf.Len() > max {
		t.Fatalf("frame is %d bytes, want at most %d", buf.Len(), max)
	}
	var out msg
	if err := wire.ReadFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || !bytes.Equal(out.Data, in.Data) {
		t.Fatalf("got %s with %d data bytes, want %s with %d", out.Type, len(out.Data), in.Type, len(in.Data))
	}
}

func testRelation(name string, rows int) *rel.Relation {
	r := rel.New(name, "src", "dst")
	for i := 0; i < rows; i++ {
		r.AppendRow(int64(i), int64(i*7%101))
	}
	return r
}

// harness wires a coordinator with a seeded authoritative store and a
// channel of committed memberships.
type harness struct {
	t       *testing.T
	coord   *Coordinator
	store   *partstore.Store
	addr    string
	changes chan []string
}

func newHarness(t *testing.T, rows, slots int) *harness {
	t.Helper()
	return newHarnessWith(t, rows, slots, CoordinatorConfig{
		HeartbeatEvery: 20 * time.Millisecond,
		CallTimeout:    5 * time.Second,
	})
}

// newHarnessWith is newHarness with the coordinator's heartbeat interval
// and call timeout taken from cfg.
func newHarnessWith(t *testing.T, rows, slots int, cfg CoordinatorConfig) *harness {
	t.Helper()
	store, err := partstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := partstore.SaveRelation(store, testRelation("E", rows), slots); err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, store: store, changes: make(chan []string, 64)}
	cfg.OnChange = func(members []string) { h.changes <- append([]string(nil), members...) }
	cfg.Logf = t.Logf
	h.coord = NewCoordinator(store, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h.addr = ln.Addr().String()
	go h.coord.Serve(ln)
	t.Cleanup(func() { h.coord.Close() })
	return h
}

// waitFor blocks until OnChange reports exactly the wanted membership.
func (h *harness) waitFor(want ...string) {
	h.t.Helper()
	deadline := time.After(15 * time.Second)
	for {
		select {
		case got := <-h.changes:
			if equalNames(got, want) {
				return
			}
		case <-deadline:
			h.t.Fatalf("timed out waiting for membership %v", want)
		}
	}
}

func equalNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

type testMember struct {
	m      *Member
	store  *partstore.Store
	cancel context.CancelFunc
	done   chan error
}

// startMember launches a member with its own (or a reused) data directory.
func (h *harness) startMember(name, dir string, cfg MemberConfig) *testMember {
	h.t.Helper()
	if dir == "" {
		dir = h.t.TempDir()
	}
	store, err := partstore.Open(dir)
	if err != nil {
		h.t.Fatal(err)
	}
	cfg.Name = name
	cfg.CoordinatorAddr = h.addr
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = 5 * time.Second
	}
	if cfg.JoinBackoff == 0 {
		cfg.JoinBackoff = 20 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = h.t.Logf
	}
	m, err := NewMember(store, cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	tm := &testMember{m: m, store: store, cancel: cancel, done: make(chan error, 1)}
	go func() { tm.done <- m.Run(ctx) }()
	h.t.Cleanup(func() { cancel(); m.Close() })
	return tm
}

// checkPlacement asserts that every member's local store holds exactly the
// slots rendezvous hashing assigns its name — all loadable and checksum-
// verified — and that the union reconstructs the relation bit-identically
// to the authoritative store.
func (h *harness) checkPlacement(members map[string]*testMember) {
	h.t.Helper()
	names := make([]string, 0, len(members))
	for n := range members {
		names = append(names, n)
	}
	e := h.store.Entry("E")
	total := 0
	for name, tm := range members {
		slots := SlotsFor(names, "E", e.Slots, name)
		if len(slots) == 0 {
			continue // rendezvous can leave a member empty on small grids
		}
		got, err := tm.store.LoadSlots("E", slots)
		if err != nil {
			h.t.Fatalf("member %q cannot load its slots %v: %v", name, slots, err)
		}
		want, err := h.store.LoadSlots("E", slots)
		if err != nil {
			h.t.Fatal(err)
		}
		if !got.Equal(want) {
			h.t.Fatalf("member %q slots %v differ from the authoritative store", name, slots)
		}
		total += len(slots)
	}
	if total != e.Slots {
		h.t.Fatalf("members own %d slots, want %d", total, e.Slots)
	}
}

func TestClusterDistributesAndRebalances(t *testing.T) {
	h := newHarness(t, 600, 8)
	members := map[string]*testMember{
		"m1": h.startMember("m1", "", MemberConfig{}),
		"m2": h.startMember("m2", "", MemberConfig{}),
		"m3": h.startMember("m3", "", MemberConfig{}),
	}
	h.waitFor("m1", "m2", "m3")
	h.checkPlacement(members)

	if got := h.coord.Members(); !equalNames(got, []string{"m1", "m2", "m3"}) {
		t.Fatalf("Members() = %v", got)
	}
	if v := h.store.CatalogVersion(); v == 0 {
		t.Fatal("catalog version never bumped")
	}

	// A clean leave rebalances m2's slots onto the survivors.
	members["m2"].cancel()
	delete(members, "m2")
	h.waitFor("m1", "m3")
	h.checkPlacement(members)

	st := h.coord.Status()
	for _, p := range st.Partitions {
		if p.Owner != "m1" && p.Owner != "m3" {
			t.Fatalf("partition %s/%d owned by %q after m2 left", p.Relation, p.Slot, p.Owner)
		}
	}
	leftSeen := false
	for _, m := range st.Members {
		if m.Name == "m2" && m.State == StateLeft {
			leftSeen = true
		}
	}
	if !leftSeen {
		t.Fatalf("status does not report m2 as left: %+v", st.Members)
	}
}

func TestReplacementReusesItsStore(t *testing.T) {
	h := newHarness(t, 400, 8)
	dir := t.TempDir()
	m1 := h.startMember("m1", dir, MemberConfig{})
	m2 := h.startMember("m2", "", MemberConfig{})
	h.waitFor("m1", "m2")

	// Kill m1 abruptly (no leave frame): the coordinator declares it dead
	// after a missed heartbeat and rebalances onto m2 alone.
	m1.m.Close()
	h.waitFor("m2")
	h.checkPlacement(map[string]*testMember{"m2": m2})

	// A replacement started under the same name and data directory re-owns
	// m1's old slice; its hello inventory carries the checksums, so matching
	// partitions need no transfer.
	r1 := h.startMember("m1", dir, MemberConfig{})
	h.waitFor("m1", "m2")
	h.checkPlacement(map[string]*testMember{"m1": r1, "m2": m2})

	if v := r1.m.CatalogVersion(); v != h.store.CatalogVersion() {
		t.Fatalf("replacement catalog version = %d, coordinator has %d", v, h.store.CatalogVersion())
	}
}

func TestAssignmentStability(t *testing.T) {
	all := []string{"a", "b", "c", "d"}
	without := []string{"a", "b", "d"}
	moved := 0
	for slot := 0; slot < 64; slot++ {
		before := Owner(all, "E", slot)
		after := Owner(without, "E", slot)
		if before != "c" && before != after {
			t.Fatalf("slot %d moved %s -> %s though its owner survived", slot, before, after)
		}
		if before == "c" {
			moved++
		}
	}
	// Rendezvous hashing moves only the lost member's share, roughly 1/N.
	if moved == 0 || moved == 64 {
		t.Fatalf("lost member owned %d of 64 slots", moved)
	}
}

func TestReDeriveSharesAcrossResize(t *testing.T) {
	h := newHarness(t, 300, 4)
	q, err := core.ParseRule("T(x,y,z) :- E(x,y), E(y,z), E(z,x)", nil)
	if err != nil {
		t.Fatal(err)
	}
	cat := CatalogFromStore(h.store)
	if got := cat.Cardinality("E"); got != 300 {
		t.Fatalf("catalog from store: |E| = %d, want 300", got)
	}
	r, err := ReDerive(q, cat, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Before.Cells() > 2 || r.After.Cells() > 3 {
		t.Fatalf("share grids exceed worker counts: %s cells=%d, %s cells=%d",
			r.Before, r.Before.Cells(), r.After, r.After.Cells())
	}
	if r.String() == "" {
		t.Fatal("empty resize rendering")
	}
}

// TestAssignmentBalance guards the mix64 finalizer in Owner: raw FNV scores
// let one member win every slot of a small grid, because the varying slot
// suffix only perturbs the score's low bits. With the finalizer each member
// of a small set must own a fair share even of an 8-slot relation.
func TestAssignmentBalance(t *testing.T) {
	members := []string{"w1", "w2", "w3"}
	counts := map[string]int{}
	for slot := 0; slot < 8; slot++ {
		counts[Owner(members, "E", slot)]++
	}
	for _, m := range members {
		if counts[m] == 0 {
			t.Fatalf("member %s owns none of 8 slots: %v", m, counts)
		}
	}
	big := map[string]int{}
	for slot := 0; slot < 9000; slot++ {
		big[Owner(members, "E", slot)]++
	}
	for _, m := range members {
		if big[m] < 2400 || big[m] > 3600 {
			t.Fatalf("member %s owns %d of 9000 slots (want ~3000): %v", m, big[m], big)
		}
	}
}
