package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"parajoin/internal/core"
	"parajoin/internal/engine"
	"parajoin/internal/hypercube"
	"parajoin/internal/rel"
	"parajoin/internal/shares"
)

// pathRounds builds a one-round two-way self-join over E(src, dst):
// P(src, dst, dst2) via E ⋈ E on dst = src2 — a plan that forces a real
// shuffle between workers, so a multi-member dispatch exercises the
// member-to-member exchange transport, not just local scans.
func pathRounds() []engine.Round {
	return []engine.Round{{
		Name: "path",
		Plan: &engine.Plan{
			Exchanges: []engine.ExchangeSpec{
				{ID: 0, Kind: engine.RouteHash, HashCols: []string{"dst"}, Input: engine.Scan{Table: "E"}},
				{ID: 1, Kind: engine.RouteHash, HashCols: []string{"src"}, Input: engine.Scan{Table: "E"}},
			},
			Root: engine.HashJoin{
				Left:     engine.Recv{Exchange: 0, Schema: rel.Schema{"src", "dst"}},
				Right:    engine.Recv{Exchange: 1, Schema: rel.Schema{"src2", "dst2"}},
				LeftCols: []string{"dst"}, RightCols: []string{"src2"},
			},
		},
	}}
}

// triangleRounds builds a HyperCube + Tributary triangle plan over E. The
// Tributary join sorts its inputs before enumeration, so each worker's
// output order is a deterministic function of the tuple SET it receives —
// which makes the serial (worker-concatenated) result byte-identical
// between coordinator-local and distributed execution, independent of
// batch arrival order. Hash-join plans only promise set equality.
func triangleRounds(workers int) []engine.Round {
	q := core.MustQuery("Tri", nil, []core.Atom{
		core.NewAtom("E", core.V("x"), core.V("y")),
		core.NewAtom("E", core.V("y"), core.V("z")),
		core.NewAtom("E", core.V("z"), core.V("x")),
	})
	grid := hypercube.NewGrid(shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{2, 2, 1}})
	cellMap := make([]int, grid.Cells())
	for i := range cellMap {
		cellMap[i] = i % workers
	}
	schemas := []rel.Schema{{"x", "y"}, {"y", "z"}, {"z", "x"}}
	inputs := make(map[string]engine.Node, len(q.Atoms))
	exchanges := make([]engine.ExchangeSpec, len(q.Atoms))
	for i, a := range q.Atoms {
		exchanges[i] = engine.ExchangeSpec{
			ID: i, Kind: engine.RouteHyperCube, Grid: grid, Atom: a, CellMap: cellMap,
			Input: engine.Scan{Table: "E"},
		}
		inputs[a.Alias] = engine.Recv{Exchange: i, Schema: schemas[i]}
	}
	return []engine.Round{{
		Name: "triangle",
		Plan: &engine.Plan{
			Exchanges: exchanges,
			Root: engine.Tributary{
				Query:  q,
				Inputs: inputs,
				Order:  []core.Var{"x", "y", "z"},
			},
		},
	}}
}

// localRun executes rounds on a coordinator-local engine loaded with exactly
// the per-member fragments the dispatch path uses — the baseline the
// distributed answer must match byte for byte.
func localRun(t *testing.T, h *harness, members []string, rounds []engine.Round) *rel.Relation {
	t.Helper()
	c := engine.NewCluster(len(members))
	defer c.Close()
	e := h.store.Entry("E")
	frags := make([]*rel.Relation, len(members))
	for i, m := range members {
		slots := SlotsFor(members, "E", e.Slots, m)
		if len(slots) == 0 {
			frags[i] = rel.New("E", e.Columns...)
			continue
		}
		frag, err := h.store.LoadSlots("E", slots)
		if err != nil {
			t.Fatal(err)
		}
		frags[i] = frag
	}
	c.LoadFragments("E", frags)
	out, _, err := c.RunRounds(context.Background(), rounds)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	return out
}

// sameSerialOrder asserts byte-identical results: same schema, same tuples,
// same serial (worker-concatenation) order — stronger than Equal, which
// sorts first.
func sameSerialOrder(t *testing.T, local, dist *rel.Relation) {
	t.Helper()
	if ls, ds := fmt.Sprint(local.Schema), fmt.Sprint(dist.Schema); ls != ds {
		t.Fatalf("schema mismatch: local %s vs distributed %s", ls, ds)
	}
	if len(local.Tuples) != len(dist.Tuples) {
		t.Fatalf("cardinality mismatch: local %d vs distributed %d", len(local.Tuples), len(dist.Tuples))
	}
	for i := range local.Tuples {
		if !local.Tuples[i].Equal(dist.Tuples[i]) {
			t.Fatalf("tuple %d differs in serial order: local %v vs distributed %v",
				i, local.Tuples[i], dist.Tuples[i])
		}
	}
}

// TestFragmentDispatchMatchesLocal runs the same plan coordinator-locally
// and via fragment dispatch at 1, 2, and 3 members and requires the answers
// to agree in serial order — the byte-identical-merge invariant.
func TestFragmentDispatchMatchesLocal(t *testing.T) {
	for n := 1; n <= 3; n++ {
		t.Run(fmt.Sprintf("members=%d", n), func(t *testing.T) {
			h := newHarness(t, 400, 6)
			var names []string
			for i := 0; i < n; i++ {
				names = append(names, fmt.Sprintf("m%d", i))
			}
			for _, name := range names {
				h.startMember(name, "", MemberConfig{})
			}
			// Drain intermediate commits until the full membership lands.
			h.waitForEventually(names...)

			d := NewDispatcher(h.store, h.coord.Endpoints(), DispatcherConfig{Logf: t.Logf})

			// Tributary plan: per-worker output is a deterministic function
			// of the received tuple set, so the merged result must match the
			// coordinator-local run in serial order — byte-identical.
			out, report, err := dispatchWithRetry(t, d, triangleRounds(n), engine.RunOpts{})
			if err != nil {
				t.Fatalf("dispatch: %v", err)
			}
			if report.RemoteFragments != n {
				t.Fatalf("report says %d remote fragments, want %d", report.RemoteFragments, n)
			}
			if len(report.RemoteMembers) != n {
				t.Fatalf("report names %v, want %d members", report.RemoteMembers, n)
			}
			local := localRun(t, h, names, triangleRounds(n))
			if len(local.Tuples) == 0 {
				t.Fatal("baseline produced no triangles; test data too sparse")
			}
			sameSerialOrder(t, local, out)

			// Hash-join plan: batch arrival order may differ, so the promise
			// is set equality; a second dispatch also proves epoch blocks
			// advance cleanly through reused runtimes.
			pout, _, err := dispatchWithRetry(t, d, pathRounds(), engine.RunOpts{})
			if err != nil {
				t.Fatalf("path dispatch: %v", err)
			}
			plocal := localRun(t, h, names, pathRounds())
			if len(plocal.Tuples) == 0 {
				t.Fatal("path baseline produced no tuples")
			}
			if !plocal.Equal(pout) {
				t.Fatalf("distributed path result differs as a set: local %d vs distributed %d tuples",
					len(plocal.Tuples), len(pout.Tuples))
			}
		})
	}
}

// TestFragmentDispatchEpochsAcrossDispatchers replays a rebuild at an
// unchanged catalog version: a second dispatcher prepares against member
// runtimes the first one already used, and those runtimes' transports have
// released every epoch the first dispatcher ran. Its runs must draw fresh
// epochs, or every frame is dropped as a straggler and the gang hangs.
func TestFragmentDispatchEpochsAcrossDispatchers(t *testing.T) {
	h := newHarness(t, 400, 6)
	h.startMember("m0", "", MemberConfig{})
	h.startMember("m1", "", MemberConfig{})
	h.waitForEventually("m0", "m1")

	d1 := NewDispatcher(h.store, h.coord.Endpoints(), DispatcherConfig{Logf: t.Logf})
	want, _, err := dispatchWithRetry(t, d1, pathRounds(), engine.RunOpts{})
	if err != nil {
		t.Fatalf("first dispatcher: %v", err)
	}
	d1.Close()

	d2 := NewDispatcher(h.store, h.coord.Endpoints(), DispatcherConfig{Logf: t.Logf})
	defer d2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, _, err := d2.RunRounds(ctx, pathRounds(), engine.RunOpts{})
	if err != nil {
		t.Fatalf("second dispatcher at the same catalog version: %v", err)
	}
	if !want.Equal(got) {
		t.Fatalf("second dispatcher's answer differs: %d vs %d tuples", len(got.Tuples), len(want.Tuples))
	}
}

// TestFragmentDispatchShipsRunOpts: the per-query options reach the
// members' engines over frag-run. A one-tuple budget with spilling off
// fails on the member, and the failure comes back non-retryable with the
// member's reason; a lifted cap answers.
func TestFragmentDispatchShipsRunOpts(t *testing.T) {
	h := newHarness(t, 400, 6)
	h.startMember("m0", "", MemberConfig{})
	h.startMember("m1", "", MemberConfig{})
	h.waitForEventually("m0", "m1")
	d := NewDispatcher(h.store, h.coord.Endpoints(), DispatcherConfig{Logf: t.Logf})
	defer d.Close()

	_, _, err := dispatchWithRetry(t, d, pathRounds(), engine.RunOpts{MaxLocalTuples: 1, Spill: engine.SpillOff})
	if err == nil || engine.Retryable(err) || !strings.Contains(err.Error(), "exceeded 1 tuples") {
		t.Fatalf("one-tuple budget: err = %v, want a non-retryable error naming \"exceeded 1 tuples\"", err)
	}
	out, _, err := dispatchWithRetry(t, d, pathRounds(), engine.RunOpts{MaxLocalTuples: -1, Spill: engine.SpillOff})
	if err != nil {
		t.Fatalf("lifted cap: %v", err)
	}
	if len(out.Tuples) == 0 {
		t.Fatal("lifted cap: empty answer")
	}
}

// dispatchWithRetry plays the serving layer's role: a retryable failure
// (e.g. a generation still settling after concurrent joins) gets the query
// re-dispatched after a short pause, exactly as the server's retry budget
// would.
func dispatchWithRetry(t *testing.T, d *Dispatcher, rounds []engine.Round, opts engine.RunOpts) (*rel.Relation, *engine.Report, error) {
	t.Helper()
	var (
		out    *rel.Relation
		report *engine.Report
		err    error
	)
	for attempt := 0; attempt < 100; attempt++ {
		out, report, err = d.RunRounds(context.Background(), rounds, opts)
		if err == nil || !engine.Retryable(err) {
			return out, report, err
		}
		time.Sleep(20 * time.Millisecond)
	}
	return out, report, err
}

// waitForEventually drains membership changes until the wanted set commits.
func (h *harness) waitForEventually(want ...string) {
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

// TestFragmentDispatchMemberDeathIsRetryable kills a member mid-query and
// requires the dispatcher to fail with a transport-class error — the class
// the serving layer's retry budget re-dispatches after the next rebuild.
func TestFragmentDispatchMemberDeathIsRetryable(t *testing.T) {
	h := newHarness(t, 2000, 6)
	tm0 := h.startMember("m0", "", MemberConfig{})
	h.waitForEventually("m0")
	tm1 := h.startMember("m1", "", MemberConfig{})
	h.waitForEventually("m0", "m1")
	_ = tm0

	d := NewDispatcher(h.store, h.coord.Endpoints(), DispatcherConfig{Logf: t.Logf})
	// Prepare first so the kill lands mid-run, not mid-prepare.
	if _, _, err := dispatchWithRetry(t, d, pathRounds(), engine.RunOpts{}); err != nil {
		t.Fatalf("warmup dispatch: %v", err)
	}

	killed := make(chan struct{})
	go func() {
		time.Sleep(5 * time.Millisecond)
		tm1.m.Close()
		// The serving layer closes a superseded generation's dispatcher on
		// the membership commit; mirror it here. Without the close, one
		// interleaving hangs forever: m1's fragment completes and THEN m1
		// dies while m0 is still mid-exchange — the tuples m1 had in flight
		// die with it, m0's Recv never wakes, and no connection the
		// dispatcher holds reports an error.
		deadline := time.After(15 * time.Second)
		for {
			var done bool
			select {
			case got := <-h.changes:
				done = equalNames(got, []string{"m0"})
			case <-deadline:
				done = true
			}
			if done {
				break
			}
		}
		d.Close()
		close(killed)
	}()
	var err error
	for i := 0; i < 200; i++ {
		_, _, err = d.RunRounds(context.Background(), pathRounds(), engine.RunOpts{})
		if err != nil {
			break
		}
	}
	<-killed
	if err == nil {
		// The member died between queries rather than mid-stream; the next
		// dispatch must still surface the loss.
		_, _, err = d.RunRounds(context.Background(), pathRounds(), engine.RunOpts{})
	}
	if err == nil {
		t.Fatal("dispatch kept succeeding after a member died")
	}
	if !engine.Retryable(err) {
		t.Fatalf("member death produced a non-retryable error: %v", err)
	}
}

// TestFragmentPrepareGenerationMismatch asserts the protocol's staleness
// guard: a dispatch planned against a catalog version the member does not
// have is refused with a retryable error instead of computing on wrong data.
func TestFragmentPrepareGenerationMismatch(t *testing.T) {
	h := newHarness(t, 100, 4)
	h.startMember("m0", "", MemberConfig{})
	h.waitForEventually("m0")

	d := NewDispatcher(h.store, h.coord.Endpoints(), DispatcherConfig{Logf: t.Logf})
	// Sabotage the generation: bump the authoritative catalog without the
	// member hearing about it.
	if _, err := h.store.BumpCatalog(); err != nil {
		t.Fatal(err)
	}
	_, _, err := d.RunRounds(context.Background(), pathRounds(), engine.RunOpts{})
	if err == nil {
		t.Fatal("dispatch against a stale member generation succeeded")
	}
	if !engine.Retryable(err) {
		t.Fatalf("generation mismatch produced a non-retryable error: %v", err)
	}
	if !strings.Contains(err.Error(), "catalog") {
		t.Fatalf("error does not name the catalog mismatch: %v", err)
	}
}

// TestFragmentRunCancellation cancels the caller's context mid-dispatch and
// requires the context error (not a transport error) back.
func TestFragmentRunCancellation(t *testing.T) {
	h := newHarness(t, 3000, 6)
	h.startMember("m0", "", MemberConfig{})
	h.waitForEventually("m0")

	d := NewDispatcher(h.store, h.coord.Endpoints(), DispatcherConfig{Logf: t.Logf})
	if _, _, err := dispatchWithRetry(t, d, pathRounds(), engine.RunOpts{}); err != nil {
		t.Fatalf("warmup dispatch: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := d.RunRounds(ctx, pathRounds(), engine.RunOpts{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled dispatch returned %v, want context.Canceled", err)
	}
}
