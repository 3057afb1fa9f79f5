package parajoin

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"parajoin/internal/dataset"
)

// The determinism suite for intra-worker parallel joins: whatever K is,
// the rows and their order must be byte-identical to the serial run. This
// is load-bearing beyond aesthetics — the fault-tolerance layer re-executes
// failed queries and assumes re-execution reproduces identical results.

// identicalResults fails unless both results hold the same rows in the
// same order.
func identicalResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, serial has %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			t.Fatalf("%s: row %d arity mismatch", label, i)
		}
		for j := range want.Rows[i] {
			if got.Rows[i][j] != want.Rows[i][j] {
				t.Fatalf("%s: row %d differs: got %v want %v", label, i, got.Rows[i], want.Rows[i])
			}
		}
	}
}

func TestParallelJoinDeterminism(t *testing.T) {
	// A skewed generator alongside the uniform ones: Zipf-heavy hubs give
	// the partitioner very uneven sub-range costs, the case most likely to
	// expose ordering bugs in the shard pool.
	skewed := dataset.Twitter(dataset.GraphConfig{Edges: 1500, Nodes: 120, Skew: 2.2, Seed: 17})
	skewedEdges := make([][2]int64, len(skewed.Tuples))
	for i, tp := range skewed.Tuples {
		skewedEdges[i] = [2]int64{tp[0], tp[1]}
	}

	inputs := []struct {
		name  string
		edges [][2]int64
		rule  string
	}{
		{"triangle", SyntheticGraph(1500, 200, 3),
			"Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)"},
		{"4clique", SyntheticGraph(900, 90, 5),
			"Cl(x,y,z,w) :- E(x,y), E(x,z), E(x,w), E(y,z), E(y,w), E(z,w)"},
		{"skewed-triangle", skewedEdges,
			"Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)"},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			db := testDB(t, 4)
			if err := db.LoadEdges("E", in.edges); err != nil {
				t.Fatal(err)
			}
			q, err := db.Query(in.rule)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := q.RunWithOptions(context.Background(),
				RunOptions{Strategy: HyperCubeTributary, Parallelism: -1})
			if err != nil {
				t.Fatal(err)
			}
			if serial.Stats.JoinTasks != 0 {
				t.Fatalf("serial run reported %d sub-join tasks", serial.Stats.JoinTasks)
			}
			engaged := false
			for _, k := range []int{2, 3, 8} {
				par, err := q.RunWithOptions(context.Background(),
					RunOptions{Strategy: HyperCubeTributary, Parallelism: k})
				if err != nil {
					t.Fatalf("K=%d: %v", k, err)
				}
				identicalResults(t, fmt.Sprintf("K=%d", k), par, serial)
				if par.Stats.JoinTasks > 0 {
					engaged = true
				}
			}
			if !engaged {
				t.Error("parallelism never engaged at any K")
			}
		})
	}
}

// TestParallelJoinDeterminismWithSpill repeats the triangle case with the
// spill path forced on: per-shard buffers must chain back in range order.
func TestParallelJoinDeterminismWithSpill(t *testing.T) {
	open := func() (*DB, *Query) {
		db := Open(4, WithSpill(SpillAlways), WithSpillDir(t.TempDir()))
		t.Cleanup(func() { db.Close() })
		if err := db.LoadEdges("E", SyntheticGraph(1500, 200, 3)); err != nil {
			t.Fatal(err)
		}
		q, err := db.Query("Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)")
		if err != nil {
			t.Fatal(err)
		}
		return db, q
	}
	_, q := open()
	serial, err := q.RunWithOptions(context.Background(),
		RunOptions{Strategy: HyperCubeTributary, Parallelism: -1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := q.RunWithOptions(context.Background(),
		RunOptions{Strategy: HyperCubeTributary, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	identicalResults(t, "K=4 spilled", par, serial)
	if par.Stats.JoinTasks == 0 {
		t.Error("parallelism never engaged under SpillAlways")
	}
}

func TestWithParallelismOption(t *testing.T) {
	db := Open(2, WithParallelism(3))
	defer db.Close()
	if got := db.Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d, want 3", got)
	}
	if err := db.LoadEdges("E", SyntheticGraph(800, 100, 3)); err != nil {
		t.Fatal(err)
	}
	q, err := db.Query("Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.RunWith(context.Background(), HyperCubeTributary)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.JoinTasks == 0 {
		t.Error("WithParallelism(3) never engaged")
	}
	if res.Stats.JoinStealMax == 0 || res.Stats.JoinStealMax > res.Stats.JoinTasks {
		t.Errorf("JoinStealMax=%d out of range (JoinTasks=%d)",
			res.Stats.JoinStealMax, res.Stats.JoinTasks)
	}
}

// TestJoinDeadlineEmitsNothing: a deadline must end a join that emits no
// rows, under every plan. No atom of the 4-cycle holds both a and c, so the
// contradictory filters cannot be pushed into a scan; a Tributary join walks
// every a–b–c path and rejects each one at c, and a hash join emits every
// path for the filter above it to drop. On the hub graph (every leaf points
// at the hub and back) that is ~leaves² rows over a few tens of thousands of
// input tuples — 14–20 s uncancelled on a 2-core Xeon, and one 1 024-row
// probe batch yields ~16 M hash-join matches — so the run must fail with the
// deadline within twice its length. The semijoin plan needs an acyclic
// query, so it runs the 2-hop path with the same filters.
func TestJoinDeadlineEmitsNothing(t *testing.T) {
	const leaves = 16000
	const deadline = 200 * time.Millisecond
	const hub = 0
	edges := make([][2]int64, 0, 2*leaves)
	for i := int64(1); i <= leaves; i++ {
		edges = append(edges, [2]int64{i, hub}, [2]int64{hub, i})
	}
	db := testDB(t, 1)
	if err := db.LoadEdges("E", edges); err != nil {
		t.Fatal(err)
	}
	cycle, err := db.Query("C(a,b,c,d) :- E(a,b), E(b,c), E(c,d), E(d,a), a < c, c < a")
	if err != nil {
		t.Fatal(err)
	}
	path, err := db.Query("P(a,b,c) :- E(a,b), E(b,c), a < c, c < a")
	if err != nil {
		t.Fatal(err)
	}
	// -race slows the work before the first poll; it gets a fixed second.
	limit := 2 * deadline
	if raceEnabled {
		limit = deadline + time.Second
	}
	cases := []struct {
		s Strategy
		q *Query
	}{
		{RegularHash, cycle}, {RegularTributary, cycle},
		{BroadcastHash, cycle}, {BroadcastTributary, cycle},
		{HyperCubeHash, cycle}, {HyperCubeTributary, cycle},
		{Semijoin, path},
	}
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			for _, c := range cases {
				t.Run(string(c.s), func(t *testing.T) {
					ctx, cancel := context.WithTimeout(context.Background(), deadline)
					defer cancel()
					start := time.Now()
					_, err := c.q.RunWithOptions(ctx, RunOptions{Strategy: c.s, Parallelism: k})
					elapsed := time.Since(start)
					if !errors.Is(err, context.DeadlineExceeded) {
						t.Fatalf("err = %v after %v, want context.DeadlineExceeded", err, elapsed)
					}
					if elapsed > limit {
						t.Fatalf("returned %v after a %v deadline, want within %v", elapsed, deadline, limit)
					}
				})
			}
		})
	}
}
