package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"parajoin/internal/core"
	"parajoin/internal/ljoin"
	"parajoin/internal/metrics"
	"parajoin/internal/rel"
	"parajoin/internal/shares"
	"parajoin/internal/spill"
	"parajoin/internal/trace"
)

// spillTriangleData loads one deterministic triangle workload into a
// cluster and returns the naive answer.
func spillTriangleData(c *Cluster) (*core.Query, *rel.Relation) {
	q := triangleQuery()
	r := randGraph("R", 1200, 60, 21)
	s := randGraph("S", 1200, 60, 22)
	u := randGraph("T", 1200, 60, 23)
	c.Load(r)
	c.Load(s)
	c.Load(u)
	want, _ := ljoin.NaiveEvaluate(q, map[string]*rel.Relation{"R": r, "S": s, "T": u})
	return q, want
}

func maxPeak(report *Report) int64 {
	var peak int64
	for _, p := range report.PeakResidentTuples {
		if p > peak {
			peak = p
		}
	}
	return peak
}

// assertNoSpillFiles fails if any run directory survived under dir.
func assertNoSpillFiles(t *testing.T, dir string) {
	t.Helper()
	leftovers, err := filepath.Glob(filepath.Join(dir, "parajoin-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("spill temp dirs left behind: %v", leftovers)
	}
}

// TestSpillOnPressureMatchesUnlimited is the subsystem's acceptance test: a
// Tributary join whose working set exceeds the budget by ≥4× must complete
// under SpillOnPressure with exactly the unlimited run's answer, report
// spill activity, and leave no temp files behind.
func TestSpillOnPressureMatchesUnlimited(t *testing.T) {
	const workers = 4
	cfg := shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{2, 2, 1}}

	// Baseline: unlimited memory, spilling off.
	free := NewCluster(workers)
	q, want := spillTriangleData(free)
	plan := hcTrianglePlan(q, cfg, workers)
	base, baseReport, err := free.Run(context.Background(), plan)
	free.Close()
	if err != nil {
		t.Fatal(err)
	}
	base.Dedup()
	if !base.Equal(want) {
		t.Fatalf("unlimited run wrong: %d tuples, naive %d", base.Cardinality(), want.Cardinality())
	}
	peak := maxPeak(baseReport)
	if peak < 8 {
		t.Fatalf("baseline peak %d too small to squeeze 4×", peak)
	}

	// Squeezed: a quarter of the measured working set, spilling on.
	dir := t.TempDir()
	c := NewCluster(workers)
	defer c.Close()
	c.MaxLocalTuples = peak / 4
	c.SpillPolicy = SpillOnPressure
	c.SpillDir = dir
	spillTriangleData(c)

	ring := trace.NewRing(1 << 14)
	rounds := []Round{{Name: "hc_tj", Plan: plan}}
	got, report, err := c.RunRoundsOpts(context.Background(), rounds, RunOpts{Tracer: trace.New(ring)})
	if err != nil {
		t.Fatalf("squeezed run (budget %d): %v", peak/4, err)
	}
	got.Dedup()
	if !got.Equal(want) {
		t.Fatalf("spilled run: %d tuples, want %d", got.Cardinality(), want.Cardinality())
	}
	if report.SpillSegments == 0 || report.SpilledBytes == 0 {
		t.Fatalf("no spill activity reported: segments=%d bytes=%d",
			report.SpillSegments, report.SpilledBytes)
	}
	if p := maxPeak(report); p > peak/4 {
		t.Errorf("squeezed peak %d exceeds budget %d", p, peak/4)
	}
	spills := 0
	for _, e := range ring.Snapshot() {
		if e.Kind == trace.KindSpill {
			spills++
		}
	}
	if spills == 0 {
		t.Error("no spill trace events emitted")
	}
	assertNoSpillFiles(t, dir)
}

// TestBatchStoreBalance runs one HC_TJ triangle plan 20 times on one
// cluster, with spilling off and on-pressure, and requires the batch store
// to hold at most twice after run 20 what it held after run 2. A run takes
// its batches' storage from the store and gives it back, so the store
// levels off; storage the store did not hand out, such as a Tributary
// join's arena chunks or decoded segment batches passed on as they are,
// would pile up in it run after run.
func TestBatchStoreBalance(t *testing.T) {
	const workers, runs = 4, 20
	cfg := shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{2, 2, 1}}
	held := func(c *Cluster) int { return int(c.batches.vals.Load()) }
	for _, pol := range []SpillPolicy{SpillOff, SpillOnPressure} {
		c := NewCluster(workers)
		defer c.Close()
		c.SpillPolicy = pol
		c.SpillDir = t.TempDir()
		q, want := spillTriangleData(c)
		plan := hcTrianglePlan(q, cfg, workers)
		var early int
		for run := 1; run <= runs; run++ {
			got, _, err := c.Run(context.Background(), plan)
			if err != nil {
				t.Fatalf("spill %v, run %d: %v", pol, run, err)
			}
			got.Dedup()
			if !got.Equal(want) {
				t.Fatalf("spill %v, run %d: %d tuples, want %d", pol, run, got.Cardinality(), want.Cardinality())
			}
			if run == 2 {
				early = held(c)
			}
		}
		late := held(c)
		t.Logf("spill %v: the store holds %d values after run 2, %d after run %d", pol, early, late, runs)
		if late > 2*early {
			t.Fatalf("spill %v: the store grew from %d values after run 2 to %d after run %d", pol, early, late, runs)
		}
	}
}

// TestTributaryReleasesSorters opens a Tributary triangle on one worker,
// with spilling off and with on-pressure spill under a budget that holds
// two of its three sorted inputs, and requires that once open has
// returned the worker's charge is only what the join's output Buffers
// hold: the join has read the Sorters' words, so none of their
// reservation is left, and the held ledger's sort charge is back to 0.
func TestTributaryReleasesSorters(t *testing.T) {
	for _, tc := range []struct {
		pol   spill.Policy
		limit int64
	}{{spill.Off, 0}, {spill.OnPressure, 3000}} {
		c := NewCluster(1)
		defer c.Close()
		q, want := spillTriangleData(c)
		e := opExec(c)
		e.acct = spill.NewAccountant(1, tc.limit, 0)
		e.spillPolicy, e.spillBase = tc.pol, t.TempDir()
		inputs := make(map[string]Node, len(q.Atoms))
		for _, a := range q.Atoms {
			inputs[a.Alias] = Scan{Table: a.Relation}
		}
		root := Tributary{Query: q, Inputs: inputs, Order: []core.Var{"x", "y", "z"}}
		op, err := e.compile(root, &task{ex: e, worker: 0, exchange: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := op.open(); err != nil {
			t.Fatalf("spill %v: %v", tc.pol, err)
		}
		l := &e.held[0]
		used, buffered := e.acct.Used(0), l.buffered.Load()
		if sc := l.sortCharged.Load(); sc != 0 {
			t.Errorf("spill %v: the Sorters still charge %d values after open", tc.pol, sc)
		}
		if used*int64(len(root.Order)) != buffered {
			t.Errorf("spill %v: the worker is charged %d tuples after open, its output Buffers hold %d values",
				tc.pol, used, buffered)
		}
		if tc.pol == spill.OnPressure && e.spillSegs.Load() == 0 {
			t.Errorf("spill %v: nothing sealed under a %d-tuple budget", tc.pol, tc.limit)
		}
		var rows int
		for {
			b, err := op.next()
			if err != nil {
				break
			}
			rows += b.Len()
		}
		if err := op.close(); err != nil {
			t.Fatal(err)
		}
		e.cleanupSpill()
		if rows != want.Cardinality() {
			t.Fatalf("spill %v: %d rows, want %d", tc.pol, rows, want.Cardinality())
		}
	}
}

// TestSpillAlwaysMatchesUnlimited runs the same workload with every run
// sealed to disk regardless of pressure — the policy that exercises the
// external merge path hardest.
func TestSpillAlwaysMatchesUnlimited(t *testing.T) {
	const workers = 3
	cfg := shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{3, 1, 1}}

	free := NewCluster(workers)
	q, want := spillTriangleData(free)
	plan := hcTrianglePlan(q, cfg, workers)
	free.Close()

	dir := t.TempDir()
	c := NewCluster(workers)
	defer c.Close()
	c.SpillPolicy = SpillAlways
	c.SpillDir = dir
	c.SpillSealTuples = 64 // small runs → every operator exercises the merge
	spillTriangleData(c)

	got, report, err := c.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	got.Dedup()
	if !got.Equal(want) {
		t.Fatalf("always-spill run: %d tuples, want %d", got.Cardinality(), want.Cardinality())
	}
	if report.SpillSegments == 0 {
		t.Fatal("SpillAlways reported no segments")
	}
	assertNoSpillFiles(t, dir)
}

// TestSpillDiskCapFails: a hard cap on spilled bytes converts pressure into
// ErrSpillBudget instead of unbounded disk growth.
func TestSpillDiskCapFails(t *testing.T) {
	const workers = 2
	cfg := shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{2, 1, 1}}

	dir := t.TempDir()
	c := NewCluster(workers)
	defer c.Close()
	c.MaxLocalTuples = 32
	c.SpillPolicy = SpillOnPressure
	c.SpillDir = dir
	c.MaxSpillBytes = 256 // a segment or two at most
	q, _ := spillTriangleData(c)

	_, _, err := c.Run(context.Background(), hcTrianglePlan(q, cfg, workers))
	if !errors.Is(err, ErrSpillBudget) {
		t.Fatalf("err = %v, want ErrSpillBudget", err)
	}
	assertNoSpillFiles(t, dir)
}

// TestCancelMidSpillRemovesTempDir cancels the run as soon as the first
// sealed run reaches the run's spill file and verifies the per-run directory is gone
// once Run returns — the cleanup path must cover cancellation, not just
// success.
func TestCancelMidSpillRemovesTempDir(t *testing.T) {
	const workers = 2
	cfg := shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{2, 1, 1}}

	dir := t.TempDir()
	c := NewCluster(workers)
	defer c.Close()
	c.MaxLocalTuples = 16 // tiny budget → many small segments
	c.SpillPolicy = SpillOnPressure
	c.SpillDir = dir
	q, _ := spillTriangleData(c)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		for {
			// Cancel once the first sealed run has reached the run file.
			files, _ := filepath.Glob(filepath.Join(dir, "parajoin-spill-*", "run.spill"))
			if len(files) > 0 {
				if fi, err := os.Stat(files[0]); err == nil && fi.Size() > 0 {
					cancel()
					return
				}
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()

	_, _, err := c.Run(ctx, hcTrianglePlan(q, cfg, workers))
	cancel()
	<-stop
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want nil or context.Canceled", err)
	}
	assertNoSpillFiles(t, dir)
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("spill base dir not empty after cancel: %v", entries)
	}
}

// TestSpillNormalizesConstantsAndRepeatedVars runs a rule with a constant
// and a repeated variable through HyperCube + Tributary. The Normalizer in
// front of each input's Sorter is the engine's only normalization, so with
// spilling off and with every run sealed, serial and at K=4, the rows must
// be the naive evaluator's.
func TestSpillNormalizesConstantsAndRepeatedVars(t *testing.T) {
	const workers = 4
	q := core.MustQuery("Q", []core.Var{"x", "y"}, []core.Atom{
		core.NewAtom("E", core.V("x"), core.V("y")),
		core.NewAtom("E", core.V("y"), core.C(5)),
		core.NewAtom("E", core.V("x"), core.V("x")),
	})
	e := randGraph("E", 600, 30, 31)
	for v := int64(0); v < 30; v += 2 {
		e.AppendRow(v, v)
		e.AppendRow(v+1, 5)
	}
	e.Dedup()
	rels := make(map[string]*rel.Relation, len(q.Atoms))
	for _, a := range q.Atoms {
		rels[a.Alias] = e
	}
	want, err := ljoin.NaiveEvaluate(q, rels)
	if err != nil {
		t.Fatal(err)
	}
	if want.Cardinality() == 0 {
		t.Fatal("naive answer is empty; the data exercises nothing")
	}
	plan := hcTrianglePlan(q, shares.Config{Vars: []core.Var{"x", "y"}, Dims: []int{2, 2}}, workers)

	for _, policy := range []SpillPolicy{SpillOff, SpillAlways} {
		for _, k := range []int{1, 4} {
			dir := t.TempDir()
			c := NewCluster(workers)
			c.SpillPolicy = policy
			c.SpillDir = dir
			c.SpillSealTuples = 16
			c.Load(e)
			got, report, err := c.RunRoundsOpts(context.Background(),
				[]Round{{Name: "hc_tj", Plan: plan}}, RunOpts{Parallelism: k})
			c.Close()
			if err != nil {
				t.Fatalf("%v K=%d: %v", policy, k, err)
			}
			got.Dedup()
			if !got.Equal(want) {
				t.Fatalf("%v K=%d: %d rows, naive %d", policy, k, got.Cardinality(), want.Cardinality())
			}
			if sealed := report.SpillSegments > 0; sealed != (policy == SpillAlways) {
				t.Errorf("%v K=%d: %d spill segments", policy, k, report.SpillSegments)
			}
			assertNoSpillFiles(t, dir)
		}
	}
}

// TestSpillOffMemTuplesDropToZeroAfterRun: a query's mem_tuples reading
// (the /debug/queries column) follows the run's memory accountant, so it
// reads 0 once the run is over even though the run reserved tuples.
func TestSpillOffMemTuplesDropToZeroAfterRun(t *testing.T) {
	const workers = 4
	cfg := shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{2, 2, 1}}
	c := NewCluster(workers)
	defer c.Close()
	q, _ := spillTriangleData(c)

	const id = 1 << 40 // clear of any id a serving layer hands out
	prog := metrics.NewQueryProgress(id, "Triangle")
	metrics.TrackQuery(prog)
	defer metrics.UntrackQuery(prog)
	_, report, err := c.Run(metrics.WithQuery(context.Background(), prog), hcTrianglePlan(q, cfg, workers))
	if err != nil {
		t.Fatal(err)
	}
	if maxPeak(report) == 0 {
		t.Fatal("the run reserved nothing; the test exercises nothing")
	}
	for _, s := range metrics.InflightQueries() {
		if s.ID == id {
			if s.MemTuples != 0 {
				t.Fatalf("mem_tuples = %d after the run, want 0", s.MemTuples)
			}
			return
		}
	}
	t.Fatal("query missing from the in-flight table")
}

// TestRowBlockBufferMatchesAdd hands rows to a Buffer in blocks, as
// batches through AddBatch the way each Tributary shard and runRoot do,
// and checks the Buffer ends up exactly as with one Add per row: the same
// rows and Len, and under a budget that runs out part way, the same error
// after the same rows. Zero-arity rows are counted by the batch's row
// count.
func TestRowBlockBufferMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for arity := 0; arity <= 3; arity++ {
		rows := make([]rel.Tuple, 200)
		for i := range rows {
			rows[i] = make(rel.Tuple, arity)
			for c := range rows[i] {
				rows[i][c] = rng.Int63n(1000)
			}
		}
		for _, most := range []int{1, 7, 1024} {
			for _, limit := range []int64{0, 50} {
				open := func() *spill.Buffer {
					return spill.NewBuffer(spill.Config{Acct: spill.NewAccountant(1, limit, 0), Arity: arity,
						Policy: spill.Off, Label: "result"})
				}
				want := open()
				var wantErr error
				for _, r := range rows {
					if wantErr = want.Add(r); wantErr != nil {
						break
					}
				}
				got := open()
				var gotErr error
				for lo := 0; lo < len(rows) && gotErr == nil; lo += most {
					b := rel.BatchOf(arity, 0, nil)
					for _, r := range rows[lo:min(lo+most, len(rows))] {
						b.Append(r)
					}
					gotErr = got.AddBatch(b)
				}
				name := fmt.Sprintf("arity %d, blocks of %d, limit %d", arity, most, limit)
				if gotErr != wantErr || got.Len() != want.Len() {
					t.Fatalf("%s: blocks gave %d rows and %v, rows one by one %d and %v",
						name, got.Len(), gotErr, want.Len(), wantErr)
				}
				if wantErr != nil {
					continue
				}
				var drained [2][]rel.Tuple
				for i, b := range []*spill.Buffer{got, want} {
					s, err := b.Finish()
					if err == nil {
						drained[i], err = spill.Drain(s)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if !slices.EqualFunc(drained[0], drained[1], rel.Tuple.Equal) {
					t.Fatalf("%s: blocks gave rows %v, want %v", name, drained[0], drained[1])
				}
			}
		}
	}
}
