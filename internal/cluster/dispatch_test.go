package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"parajoin/internal/core"
	"parajoin/internal/engine"
	"parajoin/internal/fault"
	"parajoin/internal/hypercube"
	"parajoin/internal/partstore"
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
	if err := serialDiff(local, dist); err != nil {
		t.Fatal(err)
	}
}

// serialDiff reports the first way dist differs from local in schema,
// cardinality or serial order, or nil.
func serialDiff(local, dist *rel.Relation) error {
	if ls, ds := fmt.Sprint(local.Schema), fmt.Sprint(dist.Schema); ls != ds {
		return fmt.Errorf("schema mismatch: local %s vs distributed %s", ls, ds)
	}
	if len(local.Tuples) != len(dist.Tuples) {
		return fmt.Errorf("cardinality mismatch: local %d vs distributed %d", len(local.Tuples), len(dist.Tuples))
	}
	for i := range local.Tuples {
		if !local.Tuples[i].Equal(dist.Tuples[i]) {
			return fmt.Errorf("tuple %d differs in serial order: local %v vs distributed %v",
				i, local.Tuples[i], dist.Tuples[i])
		}
	}
	return nil
}

// stallRuns makes m's next fragment run take at least d: worker 0's first
// send on exchange 0 waits d, or until the run is canceled. The returned
// injector counts the stall once it has begun.
func stallRuns(m *Member, d time.Duration) *fault.Injector {
	plan := &fault.Plan{Rules: []fault.Rule{{Kind: fault.KindStall, Exchange: 0, Worker: 0, Nth: 1, Delay: d}}}
	inj := plan.NewInjector()
	m.fragMu.Lock()
	defer m.fragMu.Unlock()
	m.frag.eng.WrapTransport(func(tr engine.Transport) engine.Transport { return fault.Wrap(tr, inj) })
	return inj
}

// runsInFlight counts the member's frag-runs that have not finished.
func (m *Member) runsInFlight() int {
	m.fragMu.Lock()
	defer m.fragMu.Unlock()
	return len(m.runs)
}

// waitUntil polls cond until it holds, failing the test after timeout.
func waitUntil(t *testing.T, timeout time.Duration, cond func() bool, format string, args ...any) {
	t.Helper()
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf(format, args...)
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
// unchanged catalog version: a second dispatcher runs on member runtimes
// the first one already used, and those runtimes' transports have
// released every epoch the first dispatcher ran. Its runs must draw fresh
// epochs, or every frame is dropped as a straggler and the gang hangs.
func TestFragmentDispatchEpochsAcrossDispatchers(t *testing.T) {
	h := newHarness(t, 400, 6)
	// One join at a time, so no later commit moves the catalog version
	// between the two dispatchers.
	h.startMember("m0", "", MemberConfig{})
	h.waitForEventually("m0")
	h.startMember("m1", "", MemberConfig{})
	h.waitForEventually("m0", "m1")

	d1 := NewDispatcher(h.store, h.coord.Endpoints(), DispatcherConfig{Logf: t.Logf})
	want, _, err := dispatchWithRetry(t, d1, pathRounds(), engine.RunOpts{})
	if err != nil {
		t.Fatalf("first dispatcher: %v", err)
	}

	d2 := NewDispatcher(h.store, h.coord.Endpoints(), DispatcherConfig{Logf: t.Logf})
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
	// Warm up first so the kill lands on a dispatcher that has run.
	if _, _, err := dispatchWithRetry(t, d, pathRounds(), engine.RunOpts{}); err != nil {
		t.Fatalf("warmup dispatch: %v", err)
	}

	killed := make(chan struct{})
	go func() {
		time.Sleep(5 * time.Millisecond)
		tm1.m.Close()
		// One interleaving needs the membership commit to end the query:
		// m1's fragment completes and THEN m1 dies while m0 is still
		// mid-exchange — the tuples m1 had in flight die with it, m0's Recv
		// never wakes, and no link the dispatcher holds reports an error.
		// m0 retires that runtime when it adopts the commit's version,
		// which fails the run retryably.
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

// TestFragmentRunGenerationMismatch asserts the protocol's staleness guard:
// a dispatch planned against a catalog version the member has not built is
// refused with a retryable error instead of computing on wrong data.
func TestFragmentRunGenerationMismatch(t *testing.T) {
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

	// The member guards itself too: a frag-run that gets past the
	// dispatcher's check at a version the member has not built is refused,
	// retryably, naming both versions.
	want := h.store.CatalogVersion()
	reply, err := h.coord.Endpoints()[0].link.call(&msg{Type: msgFragRun, CatalogVersion: want})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != msgFragDone || !reply.Retryable ||
		!strings.Contains(reply.Err, fmt.Sprintf("built catalog v%d, dispatch wants catalog v%d", want-1, want)) {
		t.Fatalf("member answered a stale frag-run with %+v, want a retryable frag-done naming v%d and v%d", reply, want-1, want)
	}
}

// TestFragmentRunCancellation cancels the caller's context before the
// dispatch and again after frag-run reached the member. Both return the
// context error (not a transport error); the second must also stop the run
// on the member with a frag-cancel, leaving the link up.
func TestFragmentRunCancellation(t *testing.T) {
	h := newHarness(t, 3000, 6)
	tm := h.startMember("m0", "", MemberConfig{})
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

	inj := stallRuns(tm.m, time.Minute)
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, _, err := d.RunRounds(ctx, pathRounds(), engine.RunOpts{})
		errc <- err
	}()
	waitUntil(t, 5*time.Second, func() bool { return inj.InjectedTotal() > 0 || len(errc) > 0 },
		"frag-run never reached the member's stall")
	if len(errc) > 0 {
		t.Fatalf("dispatch ended before the cancel: %v", <-errc)
	}
	if tm.m.runsInFlight() == 0 {
		t.Fatal("the member stalls a run it does not count in flight")
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("dispatch canceled mid-run returned %v, want context.Canceled", err)
	}
	waitUntil(t, 2*time.Second, func() bool { return tm.m.runsInFlight() == 0 },
		"member still runs the canceled fragment after 2s")
	for _, m := range h.coord.Status().Members {
		if m.Name != "m0" || m.State != StateAlive {
			t.Fatalf("the cancel cost the member its link: %+v", h.coord.Status().Members)
		}
	}
	if _, _, err := d.RunRounds(context.Background(), pathRounds(), engine.RunOpts{}); err != nil {
		t.Fatalf("dispatch after the cancel: %v", err)
	}
}

// TestFragmentExchangeKillMidRun kills one member's exchange connections
// while a two-member dispatch is held mid-run. The exchange has no resend:
// the dispatch either completes with the local answer or fails retryably,
// within 2s of the kill. The next dispatch dials afresh and must match the
// local run byte for byte, and the kill must cost no member its
// membership.
func TestFragmentExchangeKillMidRun(t *testing.T) {
	h := newHarness(t, 400, 6)
	names := []string{"m0", "m1"}
	tm0 := h.startMember("m0", "", MemberConfig{})
	h.waitForEventually("m0")
	tm1 := h.startMember("m1", "", MemberConfig{})
	h.waitForEventually(names...)
	want := localRun(t, h, names, triangleRounds(2))
	if len(want.Tuples) == 0 {
		t.Fatal("baseline produced no triangles; test data too sparse")
	}
	d := NewDispatcher(h.store, h.coord.Endpoints(), DispatcherConfig{Logf: t.Logf})
	if _, _, err := dispatchWithRetry(t, d, triangleRounds(2), engine.RunOpts{}); err != nil {
		t.Fatalf("warmup dispatch: %v", err)
	}

	inj := stallRuns(tm0.m, 500*time.Millisecond)
	type answer struct {
		out *rel.Relation
		err error
	}
	done := make(chan answer, 1)
	go func() {
		out, _, err := d.RunRounds(context.Background(), triangleRounds(2), engine.RunOpts{})
		done <- answer{out, err}
	}()
	waitUntil(t, 5*time.Second, func() bool { return inj.InjectedTotal() > 0 || len(done) > 0 },
		"frag-run never reached the member's stall")
	if len(done) > 0 {
		t.Fatalf("dispatch ended before the kill: %v", (<-done).err)
	}
	tm1.m.fragMu.Lock()
	killed := tm1.m.frag.tcp.KillConnections()
	tm1.m.fragMu.Unlock()
	if killed == 0 {
		t.Fatal("no exchange connections to kill — the warmup left no links open")
	}
	select {
	case a := <-done:
		if a.err != nil && !engine.Retryable(a.err) {
			t.Fatalf("dispatch across the kill returned %v, want the answer or a retryable error", a.err)
		}
		if a.err == nil {
			sameSerialOrder(t, want, a.out)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("dispatch across the kill still runs 2s later")
	}
	// A failed dispatch returns without waiting for its canceled sibling;
	// let both members finish before the next dispatch.
	waitUntil(t, 2*time.Second, func() bool { return tm0.m.runsInFlight()+tm1.m.runsInFlight() == 0 },
		"members still run the dispatch across the kill 2s later")

	out, _, err := d.RunRounds(context.Background(), triangleRounds(2), engine.RunOpts{})
	if err != nil {
		t.Fatalf("dispatch after the kill: %v", err)
	}
	sameSerialOrder(t, want, out)
	for _, m := range h.coord.Status().Members {
		if m.State != StateAlive {
			t.Fatalf("member %q is %s after the exchange kill", m.Name, m.State)
		}
	}
}

// TestHeartbeatsShareTheLinkWithALongFragment: a fragment whose run and
// result stream last far longer than the coordinator's call timeout travels
// on the link the heartbeats use. The member must keep answering them — no
// death is declared — and the answer must match the local run.
func TestHeartbeatsShareTheLinkWithALongFragment(t *testing.T) {
	h := newHarnessWith(t, 2000, 6, CoordinatorConfig{
		HeartbeatEvery: 50 * time.Millisecond,
		CallTimeout:    300 * time.Millisecond,
	})
	tm := h.startMember("m0", "", MemberConfig{})
	h.waitForEventually("m0")
	stallRuns(tm.m, time.Second)

	d := h.coord.DispatcherFor([]string{"m0"}, DispatcherConfig{Logf: t.Logf})
	start := time.Now()
	out, _, err := d.RunRounds(context.Background(), triangleRounds(1), engine.RunOpts{})
	if err != nil {
		t.Fatalf("long dispatch: %v", err)
	}
	if took := time.Since(start); took < time.Second {
		t.Fatalf("dispatch took %v; the stall did not hold the run", took)
	}
	local := localRun(t, h, []string{"m0"}, triangleRounds(1))
	if len(local.Tuples) == 0 {
		t.Fatal("baseline produced no triangles; test data too sparse")
	}
	sameSerialOrder(t, local, out)
	for _, m := range h.coord.Status().Members {
		if m.State != StateAlive {
			t.Fatalf("member %q is %s after the long dispatch", m.Name, m.State)
		}
	}
}

// TestConcurrentDispatchesShareALink runs 4 goroutines × 10 dispatches over
// the same two member links at once. Every answer must be byte-identical to
// the local run: frames of concurrent requests interleave on a link, and
// each must reach its own request.
func TestConcurrentDispatchesShareALink(t *testing.T) {
	h := newHarness(t, 400, 6)
	names := []string{"m0", "m1"}
	// One join at a time, so the last commit is the one waited for.
	h.startMember("m0", "", MemberConfig{})
	h.waitForEventually("m0")
	h.startMember("m1", "", MemberConfig{})
	h.waitForEventually(names...)
	want := localRun(t, h, names, triangleRounds(2))
	if len(want.Tuples) == 0 {
		t.Fatal("baseline produced no triangles; test data too sparse")
	}

	d := h.coord.DispatcherFor(names, DispatcherConfig{Logf: t.Logf})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				out, _, err := d.RunRounds(context.Background(), triangleRounds(2), engine.RunOpts{})
				if err == nil {
					err = serialDiff(want, out)
				}
				if err != nil {
					errs <- fmt.Errorf("dispatch %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// setBeforeBuild installs a hook that runs ahead of each of m's runtime
// builds.
func (m *Member) setBeforeBuild(f func() error) {
	m.fragMu.Lock()
	defer m.fragMu.Unlock()
	m.beforeBuild = f
}

// TestPreJoinDispatcherRefusedAfterJoin: after a join commits, the member
// runtimes are built for the new membership at the new catalog version. A
// dispatcher of the old membership must be refused retryably, not send a
// frag-run the members cannot run; and a member that gets such a frag-run
// anyway refuses it retryably too.
func TestPreJoinDispatcherRefusedAfterJoin(t *testing.T) {
	h := newHarness(t, 400, 6)
	h.startMember("m0", "", MemberConfig{})
	h.waitForEventually("m0")
	old := h.coord.DispatcherFor([]string{"m0"}, DispatcherConfig{Logf: t.Logf})
	if _, _, err := dispatchWithRetry(t, old, triangleRounds(1), engine.RunOpts{}); err != nil {
		t.Fatalf("dispatch before the join: %v", err)
	}

	names := []string{"m0", "m1"}
	h.startMember("m1", "", MemberConfig{})
	h.waitForEventually(names...)
	_, _, err := old.RunRounds(context.Background(), triangleRounds(1), engine.RunOpts{})
	if err == nil || !engine.Retryable(err) {
		t.Fatalf("pre-join dispatcher after the join's commit returned %v, want a retryable error", err)
	}
	if !strings.Contains(err.Error(), "[m0 m1]") {
		t.Fatalf("error does not name the membership the runtime was built for: %v", err)
	}

	v := h.store.CatalogVersion()
	reply, err := h.coord.Endpoints()[0].link.call(&msg{Type: msgFragRun, CatalogVersion: v, Addrs: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != msgFragDone || !reply.Retryable || !strings.Contains(reply.Err, "1 exchange addrs for 2 members") {
		t.Fatalf("member answered a one-member frag-run with %+v, want a retryable frag-done", reply)
	}

	d := h.coord.DispatcherFor(names, DispatcherConfig{Logf: t.Logf})
	out, _, err := d.RunRounds(context.Background(), triangleRounds(2), engine.RunOpts{})
	if err != nil {
		t.Fatalf("dispatch at the new membership: %v", err)
	}
	sameSerialOrder(t, localRun(t, h, names, triangleRounds(2)), out)
}

// TestSlowRuntimeBuildKeepsTheLink: a member whose runtime build takes far
// longer than the coordinator's call timeout keeps answering heartbeats
// meanwhile, so it is not declared dead; dispatch is refused retryably
// while the build runs, and the late answer still lands, so dispatch
// works once it does.
func TestSlowRuntimeBuildKeepsTheLink(t *testing.T) {
	h := newHarnessWith(t, 400, 6, CoordinatorConfig{
		HeartbeatEvery: 20 * time.Millisecond,
		CallTimeout:    200 * time.Millisecond,
	})
	tm := h.startMember("m0", "", MemberConfig{})
	h.waitForEventually("m0")
	tm.m.setBeforeBuild(func() error { time.Sleep(time.Second); return nil })
	if err := h.coord.Sync(); err != nil {
		t.Fatal(err)
	}
	h.waitForEventually("m0")

	d := h.coord.DispatcherFor([]string{"m0"}, DispatcherConfig{Logf: t.Logf})
	if _, _, err := d.RunRounds(context.Background(), triangleRounds(1), engine.RunOpts{}); err == nil || !engine.Retryable(err) {
		t.Fatalf("dispatch during the build returned %v, want a retryable error", err)
	}
	out, _, err := dispatchWithRetry(t, d, triangleRounds(1), engine.RunOpts{})
	if err != nil {
		t.Fatalf("dispatch after the slow build: %v", err)
	}
	sameSerialOrder(t, localRun(t, h, []string{"m0"}, triangleRounds(1)), out)
	for _, m := range h.coord.Status().Members {
		if m.State != StateAlive {
			t.Fatalf("member %q is %s after the slow build", m.Name, m.State)
		}
	}
}

// TestFailedRuntimeBuildIsRequestedAgain: a member whose runtime build
// fails is asked again by the next dispatch that finds it behind, so the
// generation is not lost until the next membership change.
func TestFailedRuntimeBuildIsRequestedAgain(t *testing.T) {
	h := newHarness(t, 400, 6)
	tm := h.startMember("m0", "", MemberConfig{})
	h.waitForEventually("m0")
	var (
		mu     sync.Mutex
		builds int
	)
	tm.m.setBeforeBuild(func() error {
		mu.Lock()
		defer mu.Unlock()
		if builds++; builds == 1 {
			return errors.New("injected build failure")
		}
		return nil
	})
	if err := h.coord.Sync(); err != nil {
		t.Fatal(err)
	}
	h.waitForEventually("m0")

	d := h.coord.DispatcherFor([]string{"m0"}, DispatcherConfig{Logf: t.Logf})
	if _, _, err := d.RunRounds(context.Background(), triangleRounds(1), engine.RunOpts{}); err == nil || !engine.Retryable(err) {
		t.Fatalf("dispatch after the failed build returned %v, want a retryable error", err)
	}
	out, _, err := dispatchWithRetry(t, d, triangleRounds(1), engine.RunOpts{})
	if err != nil {
		t.Fatalf("dispatch after the rebuild: %v", err)
	}
	sameSerialOrder(t, localRun(t, h, []string{"m0"}, triangleRounds(1)), out)
	mu.Lock()
	defer mu.Unlock()
	if builds != 2 {
		t.Fatalf("member built %d times, want the failed build and one more", builds)
	}
}

// TestRuntimeBuildRequestLostWithItsLink: a version request whose write
// fails while the link's reader fails the same link is finished once. The
// coordinator reports the member dead, and Close returns instead of
// waiting forever on a commit stuck in the lost request's second ending.
func TestRuntimeBuildRequestLostWithItsLink(t *testing.T) {
	store, err := partstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := partstore.SaveRelation(store, testRelation("E", 200), 4); err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, store: store, changes: make(chan []string, 64)}
	h.coord = NewCoordinator(store, CoordinatorConfig{
		HeartbeatEvery: 20 * time.Millisecond,
		CallTimeout:    5 * time.Second,
		OnChange:       func(members []string) { h.changes <- members },
		Logf:           t.Logf,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lossy := &versionLossListener{Listener: ln, fired: make(chan struct{})}
	h.addr = ln.Addr().String()
	go h.coord.Serve(lossy)
	var closing sync.Once
	closed := make(chan struct{})
	closeCoord := func() {
		closing.Do(func() { go func() { h.coord.Close(); close(closed) }() })
		select {
		case <-closed:
		case <-time.After(3 * time.Second):
			t.Fatal("Coordinator.Close still waits 3s later")
		}
	}
	t.Cleanup(closeCoord)

	h.startMember("m0", "", MemberConfig{})
	select {
	case <-lossy.fired:
	case <-time.After(10 * time.Second):
		t.Fatal("the coordinator never sent the member a version request")
	}
	waitUntil(t, 3*time.Second, func() bool {
		for _, m := range h.coord.Status().Members {
			if m.Name == "m0" && m.State == StateDead {
				return true
			}
		}
		return false
	}, "member whose link was lost mid-request is not reported dead within 3s")
	closeCoord()
}

// versionLossListener wraps the coordinator's listener. The first version
// frame the coordinator writes on any accepted link closes that link's
// socket; the write returns its error only after the coordinator's read
// has failed, so the link's reader and the failed write both see the
// request lost.
type versionLossListener struct {
	net.Listener
	once  sync.Once
	fired chan struct{} // closed once the version write has failed
}

func (l *versionLossListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &versionLossConn{Conn: conn, l: l, readFailed: make(chan struct{})}, nil
}

type versionLossConn struct {
	net.Conn
	l          *versionLossListener
	readOnce   sync.Once
	readFailed chan struct{}
}

func (c *versionLossConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		c.readOnce.Do(func() { close(c.readFailed) })
	}
	return n, err
}

func (c *versionLossConn) Write(p []byte) (int, error) {
	fire := false
	if bytes.Contains(p, []byte(`"type":"version"`)) {
		c.l.once.Do(func() { fire = true })
	}
	if !fire {
		return c.Conn.Write(p)
	}
	c.Conn.Close()
	<-c.readFailed
	// Give the reader time to fail the link's open requests.
	time.Sleep(50 * time.Millisecond)
	close(c.l.fired)
	return 0, errors.New("injected: link lost while writing a version request")
}

// TestCommitAbortsInFlightDispatch: a fragment gang still running when a
// join commits is aborted with a retryable error, because each member
// retires the old generation's runtime when it adopts the new version —
// before it builds the new one, so even a failed build ends the gang.
func TestCommitAbortsInFlightDispatch(t *testing.T) {
	h := newHarness(t, 400, 6)
	tm := h.startMember("m0", "", MemberConfig{})
	h.waitForEventually("m0")
	old := h.coord.DispatcherFor([]string{"m0"}, DispatcherConfig{Logf: t.Logf})
	tm.m.setBeforeBuild(func() error { return errors.New("injected build failure") })
	inj := stallRuns(tm.m, time.Minute)
	errc := make(chan error, 1)
	go func() {
		_, _, err := old.RunRounds(context.Background(), triangleRounds(1), engine.RunOpts{})
		errc <- err
	}()
	waitUntil(t, 5*time.Second, func() bool { return inj.InjectedTotal() > 0 || len(errc) > 0 },
		"frag-run never reached the member's stall")

	h.startMember("m1", "", MemberConfig{})
	h.waitForEventually("m0", "m1")
	select {
	case err := <-errc:
		if err == nil || !engine.Retryable(err) {
			t.Fatalf("dispatch in flight across the join's commit returned %v, want a retryable error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dispatch in flight across the join's commit still runs 10s later")
	}
}
