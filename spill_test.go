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

	"parajoin/internal/engine"
	"parajoin/internal/rel"
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
	db := Open(4, WithSpillDir(dir), WithTracer(NewTracer(ring)))
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
			db := Open(4, WithSpillDir(t.TempDir()))
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
// the operator that cannot seal with spilling off: at a tiny budget a
// Tributary input's sorter; at half the peak of a 2-path join, whose
// answer outgrows its inputs, the join's one-shard output buffer at K=1.
func TestSpillOffStillFailsHard(t *testing.T) {
	db := testDB(t, 2)
	loadTriangleGraph(t, db)
	for _, c := range []struct {
		rule   string
		budget func(peak int64) int64
		want   string
	}{
		{triangleRule, func(int64) int64 { return 10 }, "sort("},
		{"P(x,y,z) :- E(x,y), E(y,z)", func(peak int64) int64 { return peak / 2 }, "in tributary)"},
	} {
		q, err := db.Query(c.rule)
		if err != nil {
			t.Fatal(err)
		}
		opts := RunOptions{Strategy: HyperCubeTributary, Parallelism: 1}
		base, err := q.RunWithOptions(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.MaxLocalTuples = c.budget(base.Stats.PeakResidentTuples)
		_, err = q.RunWithOptions(context.Background(), opts)
		if !errors.Is(err, ErrOutOfMemory) || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s at budget %d: err = %v, want ErrOutOfMemory in %s…", c.rule, opts.MaxLocalTuples, err, c.want)
		}
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
	db := Open(3, WithSpillDir(dir))
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
	db := Open(3, WithSpillDir(dir))
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

// recordingRunner is a RemoteRunner that records the options of every run
// it is handed and executes none of them.
type recordingRunner struct{ got []engine.RunOpts }

var errRecorded = errors.New("recorded, not run")

func (r *recordingRunner) RunRounds(_ context.Context, _ []engine.Round, o engine.RunOpts) (*rel.Relation, *engine.Report, error) {
	r.got = append(r.got, o)
	return nil, nil, errRecorded
}

// TestRemoteRunnerGetsResolvedLimits: a distributed run ships the
// coordinator's limits, not zeros a data node would fill from its own
// defaults. The budget, spill policy and spill cap arrive resolved against
// the DB (an unlimited one as -1, an unset policy as SpillOff); the spill
// directory, a local path, and Parallelism, whose auto value depends on
// the executing host, do not.
func TestRemoteRunnerGetsResolvedLimits(t *testing.T) {
	limited := []Option{WithMemoryLimit(1000), WithSpill(SpillOnPressure), WithSpillBudget(1 << 20),
		WithSpillDir(t.TempDir()), WithParallelism(2)}
	cases := []struct {
		name string
		db   []Option
		run  RunOptions
		want engine.RunOpts
	}{
		{"db limits", limited, RunOptions{},
			engine.RunOpts{MaxLocalTuples: 1000, Spill: SpillOnPressure, MaxSpillBytes: 1 << 20}},
		{"per-query overrides", limited,
			RunOptions{MaxLocalTuples: 10, Spill: SpillAlways, MaxSpillBytes: 5, Parallelism: 3},
			engine.RunOpts{MaxLocalTuples: 10, Spill: SpillAlways, MaxSpillBytes: 5, Parallelism: 3}},
		{"per-query lifts", limited,
			RunOptions{MaxLocalTuples: -1, MaxSpillBytes: -1, Parallelism: -1},
			engine.RunOpts{MaxLocalTuples: -1, Spill: SpillOnPressure, MaxSpillBytes: -1, Parallelism: -1}},
		{"no db limits", nil, RunOptions{},
			engine.RunOpts{MaxLocalTuples: -1, Spill: SpillOff, MaxSpillBytes: -1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := Open(2, c.db...)
			defer db.Close()
			if err := db.LoadEdges("E", SyntheticGraph(50, 10, 3)); err != nil {
				t.Fatal(err)
			}
			rec := &recordingRunner{}
			db.SetRemoteRunner(rec)
			q, err := db.Query(triangleRule)
			if err != nil {
				t.Fatal(err)
			}
			c.run.Strategy = HyperCubeTributary
			if _, err := q.RunWithOptions(context.Background(), c.run); !errors.Is(err, errRecorded) {
				t.Fatalf("err = %v, want the recording runner's", err)
			}
			if len(rec.got) != 1 {
				t.Fatalf("runner saw %d runs, want 1", len(rec.got))
			}
			got := rec.got[0]
			if got.MaxLocalTuples != c.want.MaxLocalTuples || got.Spill != c.want.Spill ||
				got.MaxSpillBytes != c.want.MaxSpillBytes || got.Parallelism != c.want.Parallelism ||
				got.SpillDir != "" {
				t.Errorf("runner got MaxLocalTuples=%d Spill=%v MaxSpillBytes=%d Parallelism=%d SpillDir=%q, "+
					"want %d %v %d %d \"\"", got.MaxLocalTuples, got.Spill, got.MaxSpillBytes, got.Parallelism,
					got.SpillDir, c.want.MaxLocalTuples, c.want.Spill, c.want.MaxSpillBytes, c.want.Parallelism)
			}
		})
	}
}
