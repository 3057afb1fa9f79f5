package parajoin

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"parajoin/internal/spill"
	"parajoin/internal/trace"
)

const triangleRule = "Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)"

// TestSpillAcceptance is the end-to-end acceptance check through the public
// API: a triangle join squeezed to a quarter of its measured working set
// completes under SpillOnPressure with the unlimited answer, reports spill
// activity in Stats, emits spill trace events, advances the process-wide
// parajoin_spill_* counters, and leaves no temp files.
func TestSpillAcceptance(t *testing.T) {
	dir := t.TempDir()
	ring := NewTraceRing(1 << 14)
	db := Open(4, WithSeed(7), WithSpillDir(dir), WithTracer(NewTracer(ring)))
	defer db.Close()
	if err := db.LoadEdges("E", SyntheticGraph(3000, 250, 3)); err != nil {
		t.Fatal(err)
	}
	q, err := db.Query(triangleRule)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: unlimited, spill off — and a working-set measurement.
	base, err := q.RunWithOptions(context.Background(), RunOptions{Strategy: HyperCubeTributary})
	if err != nil {
		t.Fatal(err)
	}
	peak := base.Stats.PeakResidentTuples
	if peak < 8 {
		t.Fatalf("baseline peak %d too small to squeeze 4×", peak)
	}

	before := spill.ReadStats()
	res, err := q.RunWithOptions(context.Background(), RunOptions{
		Strategy:       HyperCubeTributary,
		MaxLocalTuples: peak / 4,
		Spill:          SpillOnPressure,
	})
	if err != nil {
		t.Fatalf("squeezed run (budget %d): %v", peak/4, err)
	}
	if !equalRows(sortedRows(res.Rows), sortedRows(base.Rows)) {
		t.Fatalf("spilled run returned %d rows, unlimited %d", len(res.Rows), len(base.Rows))
	}
	st := res.Stats
	if st.SpillSegments == 0 || st.SpilledBytes == 0 {
		t.Fatalf("no spill activity in stats: %+v", st)
	}
	if st.PeakResidentTuples > peak/4 {
		t.Errorf("squeezed peak %d exceeds budget %d", st.PeakResidentTuples, peak/4)
	}
	after := spill.ReadStats()
	if after.Segments <= before.Segments || after.BytesWritten <= before.BytesWritten {
		t.Errorf("process-wide spill counters did not advance: %+v -> %+v", before, after)
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
	if leftovers, _ := filepath.Glob(filepath.Join(dir, "parajoin-spill-*")); len(leftovers) != 0 {
		t.Fatalf("spill temp dirs left behind: %v", leftovers)
	}
}

// TestSpillColbatchJoinByteIdentical is the property test for the columnar
// segment format: a run whose every exchange buffer is forced through
// spill-to-disk (and therefore through colbatch-encoded segments and the
// external merge) must return rows byte-identical — same values, same
// order — to the all-in-memory run, for the triangle and 4-clique queries
// at serial and K=4 intra-worker parallelism alike.
func TestSpillColbatchJoinByteIdentical(t *testing.T) {
	inputs := []struct {
		name  string
		edges [][2]int64
		rule  string
	}{
		{"triangle", SyntheticGraph(1500, 200, 3),
			"Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)"},
		{"4clique", SyntheticGraph(900, 90, 5),
			"Cl(x,y,z,w) :- E(x,y), E(x,z), E(x,w), E(y,z), E(y,w), E(z,w)"},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			db := Open(4, WithSeed(7), WithSpillDir(t.TempDir()))
			defer db.Close()
			if err := db.LoadEdges("E", in.edges); err != nil {
				t.Fatal(err)
			}
			q, err := db.Query(in.rule)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 4} {
				mem, err := q.RunWithOptions(context.Background(),
					RunOptions{Strategy: HyperCubeTributary, Parallelism: k})
				if err != nil {
					t.Fatalf("K=%d in-memory: %v", k, err)
				}
				if mem.Stats.SpillSegments != 0 {
					t.Fatalf("K=%d reference run spilled %d segments", k, mem.Stats.SpillSegments)
				}
				budget := mem.Stats.PeakResidentTuples / 4
				if budget < 2 {
					budget = 2
				}
				spilled, err := q.RunWithOptions(context.Background(), RunOptions{
					Strategy:       HyperCubeTributary,
					Parallelism:    k,
					MaxLocalTuples: budget,
					Spill:          SpillOnPressure,
				})
				if err != nil {
					t.Fatalf("K=%d spilled (budget %d): %v", k, budget, err)
				}
				if spilled.Stats.SpillSegments == 0 || spilled.Stats.SpilledBytes == 0 {
					t.Fatalf("K=%d: squeezed run produced no segments (%+v)", k, spilled.Stats)
				}
				identicalResults(t, fmt.Sprintf("%s K=%d spilled", in.name, k), spilled, mem)
			}
		})
	}
}

// TestSpillOffStillFailsHard: the legacy contract — budget exceeded with
// spilling off is ErrOutOfMemory, not silent degradation. The error names
// the Tributary input's sorter, which cannot seal with spilling off.
func TestSpillOffStillFailsHard(t *testing.T) {
	db := testDB(t, 2)
	loadTriangleGraph(t, db)
	q, err := db.Query(triangleRule)
	if err != nil {
		t.Fatal(err)
	}
	_, err = q.RunWithOptions(context.Background(), RunOptions{
		Strategy:       HyperCubeTributary,
		MaxLocalTuples: 10,
	})
	if !errors.Is(err, ErrOutOfMemory) || !strings.Contains(err.Error(), "sort(") {
		t.Fatalf("err = %v, want ErrOutOfMemory in sort(…)", err)
	}
}

// TestSpillLowMemoryTriangleSuite runs the triangle query under every
// strategy at a fraction (PARAJOIN_LOW_MEM_DIV, default 8) of each
// strategy's measured working set with spilling on. Strategies whose state
// can spill must return the unlimited answer; the rest must fail with the
// typed out-of-memory error, never a wrong answer. CI's low-memory job
// runs this under the race detector.
func TestSpillLowMemoryTriangleSuite(t *testing.T) {
	div := lowMemDiv(t)
	dir := t.TempDir()
	db := Open(3, WithSeed(7), WithSpillDir(dir))
	defer db.Close()
	if err := db.LoadEdges("E", SyntheticGraph(2000, 200, 3)); err != nil {
		t.Fatal(err)
	}
	q, err := db.Query(triangleRule)
	if err != nil {
		t.Fatal(err)
	}

	for _, s := range Strategies() {
		base, err := q.RunWithOptions(context.Background(), RunOptions{Strategy: s})
		if err != nil {
			t.Fatalf("%s unlimited: %v", s, err)
		}
		budget := base.Stats.PeakResidentTuples / div
		if budget < 2 {
			budget = 2
		}
		res, err := q.RunWithOptions(context.Background(), RunOptions{
			Strategy:       s,
			MaxLocalTuples: budget,
			Spill:          SpillOnPressure,
		})
		switch {
		case err == nil:
			if !equalRows(sortedRows(res.Rows), sortedRows(base.Rows)) {
				t.Errorf("%s at 1/%d budget: %d rows, unlimited %d",
					s, div, len(res.Rows), len(base.Rows))
			}
		case errors.Is(err, ErrOutOfMemory):
			// Non-spillable state (hash tables, dedup sets) at a budget this
			// tight fails cleanly; that is the contract.
			t.Logf("%s at 1/%d budget: %v", s, div, err)
		default:
			t.Errorf("%s at 1/%d budget: unexpected error %v", s, div, err)
		}
		if leftovers, _ := filepath.Glob(filepath.Join(dir, "parajoin-spill-*")); len(leftovers) != 0 {
			t.Fatalf("%s left spill dirs behind: %v", s, leftovers)
		}
	}
}

// lowMemDiv is the budget divisor of the low-memory tests:
// PARAJOIN_LOW_MEM_DIV, default 8.
func lowMemDiv(t *testing.T) int64 {
	v := os.Getenv("PARAJOIN_LOW_MEM_DIV")
	if v == "" {
		return 8
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n <= 0 {
		t.Fatalf("PARAJOIN_LOW_MEM_DIV=%q: want a positive integer", v)
	}
	return n
}

// TestHashJoinLowMemory runs Q1 (the triangle) under RS_HJ at a fraction
// (PARAJOIN_LOW_MEM_DIV, default 8) of its measured peak with spilling
// on. Hash-join tables cannot spill, so the run must fail with the typed
// out-of-memory error naming the hash join, and leave no spill files.
// CI's low-memory job runs it under the race detector.
func TestHashJoinLowMemory(t *testing.T) {
	dir := t.TempDir()
	db := Open(3, WithSeed(7), WithSpillDir(dir))
	defer db.Close()
	if err := db.LoadEdges("E", SyntheticGraph(2000, 200, 3)); err != nil {
		t.Fatal(err)
	}
	q, err := db.Query(triangleRule)
	if err != nil {
		t.Fatal(err)
	}
	base, err := q.RunWithOptions(context.Background(), RunOptions{Strategy: RegularHash})
	if err != nil {
		t.Fatal(err)
	}
	budget := max(base.Stats.PeakResidentTuples/lowMemDiv(t), 2)
	_, err = q.RunWithOptions(context.Background(), RunOptions{
		Strategy:       RegularHash,
		MaxLocalTuples: budget,
		Spill:          SpillOnPressure,
	})
	if !errors.Is(err, ErrOutOfMemory) || !strings.Contains(err.Error(), "in hashjoin") {
		t.Fatalf("budget %d of peak %d: err = %v, want ErrOutOfMemory in hashjoin",
			budget, base.Stats.PeakResidentTuples, err)
	}
	if leftovers, _ := filepath.Glob(filepath.Join(dir, "parajoin-spill-*")); len(leftovers) != 0 {
		t.Fatalf("spill dirs left behind: %v", leftovers)
	}
}
