package engine

import (
	"context"
	"testing"

	"parajoin/internal/core"
	"parajoin/internal/rel"
	"parajoin/internal/shares"
	"parajoin/internal/trace"
)

// identicalRows fails unless got and want hold exactly the same tuples in
// exactly the same order — the bit-identical guarantee the parallel join
// makes.
func identicalRows(t *testing.T, got, want *rel.Relation) {
	t.Helper()
	if got.Cardinality() != want.Cardinality() {
		t.Fatalf("got %d rows, want %d", got.Cardinality(), want.Cardinality())
	}
	for i := range want.Tuples {
		g, w := got.Tuples[i], want.Tuples[i]
		if len(g) != len(w) {
			t.Fatalf("row %d: arity %d vs %d", i, len(g), len(w))
		}
		for j := range w {
			if g[j] != w[j] {
				t.Fatalf("row %d differs: got %v want %v", i, g, w)
			}
		}
	}
}

// TestParallelJoinMatchesSerial is the tentpole's acceptance test: the
// same HyperCube+Tributary run with intra-worker parallelism on must
// produce byte-identical rows in identical order to the serial path, and
// must actually have split the join (JoinTasks > 0, KindJoin spans
// emitted).
func TestParallelJoinMatchesSerial(t *testing.T) {
	const workers = 4
	cfg := shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{2, 2, 1}}

	c := NewCluster(workers)
	defer c.Close()
	q, naive := spillTriangleData(c)
	plan := hcTrianglePlan(q, cfg, workers)
	rounds := []Round{{Name: "hc_tj", Plan: plan}}

	serial, serialReport, err := c.RunRoundsOpts(context.Background(), rounds, RunOpts{Parallelism: -1})
	if err != nil {
		t.Fatal(err)
	}
	if serialReport.JoinTasks != 0 {
		t.Fatalf("serial run reported %d sub-join tasks, want 0", serialReport.JoinTasks)
	}
	check := serial.Clone()
	check.Dedup()
	if !check.Equal(naive) {
		t.Fatalf("serial run wrong: %d tuples, naive %d", check.Cardinality(), naive.Cardinality())
	}

	for _, k := range []int{2, 3, 8} {
		ring := trace.NewRing(1 << 14)
		par, report, err := c.RunRoundsOpts(context.Background(), rounds,
			RunOpts{Parallelism: k, Tracer: trace.New(ring)})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		identicalRows(t, par, serial)
		if report.JoinTasks == 0 {
			t.Errorf("K=%d: parallelism never engaged (JoinTasks=0)", k)
		}
		if report.JoinStealMax == 0 || report.JoinStealMax > report.JoinTasks {
			t.Errorf("K=%d: JoinStealMax=%d out of range (JoinTasks=%d)",
				k, report.JoinStealMax, report.JoinTasks)
		}
		spans := 0
		for _, e := range ring.Snapshot() {
			if e.Kind == trace.KindJoin {
				spans++
			}
		}
		if int64(spans) != report.JoinTasks {
			t.Errorf("K=%d: %d KindJoin spans for %d tasks", k, spans, report.JoinTasks)
		}
	}
}

// TestParallelJoinSpilledMatchesSerial runs the parallel join with every
// sub-join's output forced through the spill path: per-shard buffers seal
// to disk, the shard streams are concatenated in range order, and the
// result must still be byte-identical to the serial spilled run.
func TestParallelJoinSpilledMatchesSerial(t *testing.T) {
	const workers = 4
	cfg := shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{2, 2, 1}}

	dir := t.TempDir()
	c := NewCluster(workers)
	defer c.Close()
	c.SpillPolicy = SpillAlways
	c.SpillDir = dir
	c.SpillSealTuples = 64 // tiny seals so every sub-join hits disk
	q, naive := spillTriangleData(c)
	plan := hcTrianglePlan(q, cfg, workers)
	rounds := []Round{{Name: "hc_tj", Plan: plan}}

	serial, _, err := c.RunRoundsOpts(context.Background(), rounds, RunOpts{Parallelism: -1})
	if err != nil {
		t.Fatal(err)
	}
	check := serial.Clone()
	check.Dedup()
	if !check.Equal(naive) {
		t.Fatalf("serial spilled run wrong: %d tuples, naive %d", check.Cardinality(), naive.Cardinality())
	}

	par, report, err := c.RunRoundsOpts(context.Background(), rounds, RunOpts{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	identicalRows(t, par, serial)
	if report.JoinTasks == 0 {
		t.Error("parallelism never engaged under SpillAlways")
	}
	if report.SpillSegments == 0 {
		t.Error("no spill activity under SpillAlways")
	}
	assertNoSpillFiles(t, dir)
}

// TestParallelismResolution checks the RunOpts → Cluster → default
// resolution: a cluster-wide setting engages without per-run options, a
// negative per-run value runs the join as one shard over it, and K>1 on a
// join that ljoin.Shards declines does too.
func TestParallelismResolution(t *testing.T) {
	const workers = 4
	cfg := shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{2, 2, 1}}

	c := NewCluster(workers)
	defer c.Close()
	c.Parallelism = 3
	q, _ := spillTriangleData(c)
	plan := hcTrianglePlan(q, cfg, workers)
	rounds := []Round{{Name: "hc_tj", Plan: plan}}

	_, report, err := c.RunRoundsOpts(context.Background(), rounds, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if report.JoinTasks == 0 {
		t.Error("cluster-wide Parallelism=3 never engaged")
	}

	_, report, err = c.RunRoundsOpts(context.Background(), rounds, RunOpts{Parallelism: -1})
	if err != nil {
		t.Fatal(err)
	}
	if report.JoinTasks != 0 {
		t.Errorf("RunOpts.Parallelism=-1 should force serial, got %d tasks", report.JoinTasks)
	}

	// One distinct x (the first join variable): ljoin.Shards declines, so
	// K=4 runs every worker's join as one inline shard — no sub-join tasks,
	// no KindJoin spans — and returns the K=1 rows.
	one := NewCluster(workers)
	defer one.Close()
	r, u := rel.New("R", "src", "dst"), rel.New("T", "src", "dst")
	for v := int64(0); v < 60; v++ {
		r.AppendRow(1, v)
		u.AppendRow(v, 1)
	}
	one.Load(r)
	one.Load(randGraph("S", 1200, 60, 22))
	one.Load(u)
	k1, _, err := one.RunRoundsOpts(context.Background(), rounds, RunOpts{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ring := trace.NewRing(1 << 12)
	k4, report, err := one.RunRoundsOpts(context.Background(), rounds,
		RunOpts{Parallelism: 4, Tracer: trace.New(ring)})
	if err != nil {
		t.Fatal(err)
	}
	if k1.Cardinality() == 0 {
		t.Fatal("single-x triangle input has no answer")
	}
	identicalRows(t, k4, k1)
	if report.JoinTasks != 0 {
		t.Errorf("K=4 with one distinct x: %d sub-join tasks, want 0 (Shards declines)", report.JoinTasks)
	}
	for _, e := range ring.Snapshot() {
		if e.Kind == trace.KindJoin {
			t.Fatalf("K=4 with one distinct x emitted a KindJoin span: %+v", e)
		}
	}

	if got := defaultParallelism(1); got < 1 || got > 8 {
		t.Errorf("defaultParallelism(1) = %d, want within [1, 8]", got)
	}
	if got := defaultParallelism(1 << 20); got != 1 {
		t.Errorf("defaultParallelism(huge) = %d, want 1", got)
	}
}
