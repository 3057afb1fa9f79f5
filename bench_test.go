// Benchmarks that regenerate every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index). Each benchmark
// reports the experiment's headline numbers as custom metrics and logs the
// full paper-style table (visible with -v). cmd/benchrunner prints the same
// tables directly.
//
// Set PARAJOIN_BENCH_FAST=1 to run on a reduced dataset.
package parajoin

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"parajoin/internal/core"
	"parajoin/internal/dataset"
	"parajoin/internal/experiments"
	"parajoin/internal/hypercube"
	"parajoin/internal/ljoin"
	"parajoin/internal/planner"
	"parajoin/internal/rel"
	"parajoin/internal/shares"
)

var (
	benchSuiteOnce sync.Once
	benchSuite     *experiments.Suite
)

// suite returns the shared experiment suite; experiments cache their runs,
// so benchmarks amortize across iterations.
func suite() *experiments.Suite {
	benchSuiteOnce.Do(func() {
		benchSuite = experiments.NewSuite()
		benchSuite.Timeout = 4 * time.Minute
		if os.Getenv("PARAJOIN_BENCH_FAST") != "" {
			benchSuite.Workers = 16
			benchSuite.Graph = dataset.GraphConfig{Edges: 6000, Nodes: 500, Skew: 1.3, Seed: 42}
			benchSuite.KB = dataset.KBConfig{Actors: 600, Films: 400, Performances: 2000,
				Directors: 80, Honors: 300, Awards: 10, Seed: 7}
		}
	})
	return benchSuite
}

// logRender captures a Render call into the benchmark log (shown with -v).
func logRender(b *testing.B, render func(w interface{ Write([]byte) (int, error) })) {
	b.Helper()
	var sb logWriter
	render(&sb)
	b.Log("\n" + string(sb))
}

type logWriter []byte

func (w *logWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

// benchSixConfigs is the shared body for the per-query figures.
func benchSixConfigs(b *testing.B, query string) {
	s := suite()
	var sc *experiments.SixConfigs
	var err error
	for i := 0; i < b.N; i++ {
		sc, err = s.SixConfigs(query)
		if err != nil {
			b.Fatal(err)
		}
	}
	if hc := sc.Row(planner.HCTJ); hc != nil && !hc.Failed {
		b.ReportMetric(float64(hc.Shuffled), "hcTuples")
		b.ReportMetric(hc.Wall.Seconds(), "hcWallSec")
	}
	if rs := sc.Row(planner.RSHJ); rs != nil && !rs.Failed {
		b.ReportMetric(float64(rs.Shuffled), "rsTuples")
		b.ReportMetric(rs.Wall.Seconds(), "rsWallSec")
	}
	logRender(b, func(w interface{ Write([]byte) (int, error) }) { sc.Render(w) })
}

// --- Tables ---------------------------------------------------------------

func BenchmarkTable1_FreebaseRelations(b *testing.B) {
	s := suite()
	var t *experiments.RelationSizes
	for i := 0; i < b.N; i++ {
		t = s.Table1()
	}
	b.ReportMetric(float64(t.Rows[1].Tuples), "actorPerform")
	logRender(b, func(w interface{ Write([]byte) (int, error) }) { t.Render(w) })
}

func BenchmarkTable2_Q1RegularShuffleSkew(b *testing.B) {
	s := suite()
	var t *experiments.LoadBalance
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = s.Table2(); err != nil {
			b.Fatal(err)
		}
	}
	// The paper's headline: the intermediate-result shuffle is both the
	// biggest and the most skewed.
	worst := 0.0
	for _, r := range t.Rows {
		worst = max(worst, r.ConsumerSkew())
	}
	b.ReportMetric(worst, "maxConsumerSkew")
	b.ReportMetric(float64(t.Total), "tuplesShuffled")
	logRender(b, func(w interface{ Write([]byte) (int, error) }) { t.Render(w) })
}

func BenchmarkTable3_Q1HyperCubeSkew(b *testing.B) {
	s := suite()
	var t *experiments.LoadBalance
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = s.Table3(); err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	for _, r := range t.Rows {
		worst = max(worst, r.ConsumerSkew())
	}
	b.ReportMetric(worst, "maxConsumerSkew")
	b.ReportMetric(float64(t.Total), "tuplesShuffled")
	logRender(b, func(w interface{ Write([]byte) (int, error) }) { t.Render(w) })
}

func BenchmarkTable4_Q1BroadcastSkew(b *testing.B) {
	s := suite()
	var t *experiments.LoadBalance
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = s.Table4(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(t.Total), "tuplesShuffled")
	logRender(b, func(w interface{ Write([]byte) (int, error) }) { t.Render(w) })
}

func BenchmarkTable5_Q1OperatorTime(b *testing.B) {
	s := suite()
	var t *experiments.OperatorTime
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = s.Table5(); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range t.Rows {
		if r.Config == planner.BRTJ && r.Phase == "all sorts" {
			b.ReportMetric(r.Share, "brTJSortShare")
		}
	}
	logRender(b, func(w interface{ Write([]byte) (int, error) }) { t.Render(w) })
}

func BenchmarkTable6_Summary(b *testing.B) {
	s := suite()
	var t *experiments.Summary
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = s.Table6(); err != nil {
			b.Fatal(err)
		}
	}
	hcWins := 0
	for _, r := range t.Rows {
		if r.Best == planner.HCTJ {
			hcWins++
		}
	}
	b.ReportMetric(float64(hcWins), "hcTJWins")
	logRender(b, func(w interface{ Write([]byte) (int, error) }) { t.Render(w) })
}

func BenchmarkTable7_OrderOptimization(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		for _, q := range []string{"Q3", "Q7", "Q8"} {
			st, err := s.OrderStudy(q, 5, 20*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			if st.AvgRandom > 0 {
				b.ReportMetric(float64(st.AvgRandom)/float64(st.Best.Runtime+1), q+"Speedup")
			}
		}
	}
}

func BenchmarkTable8_Q7Relations(b *testing.B) {
	s := suite()
	var t *experiments.RelationSizes
	for i := 0; i < b.N; i++ {
		t = s.Table8()
	}
	b.ReportMetric(float64(t.Rows[0].Tuples), "selectedNames")
	logRender(b, func(w interface{ Write([]byte) (int, error) }) { t.Render(w) })
}

// --- Figures ----------------------------------------------------------------

func BenchmarkFigure3_Q1SixConfigs(b *testing.B)  { benchSixConfigs(b, "Q1") }
func BenchmarkFigure4_Q2SixConfigs(b *testing.B)  { benchSixConfigs(b, "Q2") }
func BenchmarkFigure6_Q3SixConfigs(b *testing.B)  { benchSixConfigs(b, "Q3") }
func BenchmarkFigure9_Q4SixConfigs(b *testing.B)  { benchSixConfigs(b, "Q4") }
func BenchmarkFigure13_Q5SixConfigs(b *testing.B) { benchSixConfigs(b, "Q5") }
func BenchmarkFigure14_Q6SixConfigs(b *testing.B) { benchSixConfigs(b, "Q6") }
func BenchmarkFigure15_Q7SixConfigs(b *testing.B) { benchSixConfigs(b, "Q7") }
func BenchmarkFigure17_Q8SixConfigs(b *testing.B) { benchSixConfigs(b, "Q8") }

func BenchmarkFigure8_Q4WorkerUtilization(b *testing.B) {
	s := suite()
	var u *experiments.Utilization
	var err error
	for i := 0; i < b.N; i++ {
		if u, err = s.Utilization("Q4", planner.HCTJ, planner.BRTJ); err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range u.Profiles {
		b.ReportMetric(p.Skew, p.Config.String()+"BusySkew")
	}
	logRender(b, func(w interface{ Write([]byte) (int, error) }) { u.Render(w) })
}

func BenchmarkFigure10_Scalability(b *testing.B) {
	s := suite()
	sizes := []int{2, 4, 8, 16, 32, 64}
	if s.Workers < 64 {
		sizes = []int{2, 4, 8, 16}
	}
	var sc *experiments.Scalability
	var err error
	for i := 0; i < b.N; i++ {
		if sc, err = s.Scalability("Q1", sizes...); err != nil {
			b.Fatal(err)
		}
	}
	last := sc.Rows[len(sc.Rows)-1]
	b.ReportMetric(last.SpeedupHC, "hcLoadSpeedup")
	b.ReportMetric(float64(last.HCShuffled), "hcTuplesAtMax")
	logRender(b, func(w interface{ Write([]byte) (int, error) }) { sc.Render(w) })
}

// BenchmarkFigure10b_IntraWorkerSpeedup sweeps the sub-join parallelism K
// on Q1 and Q2 under HC_TJ. The wallSpeedupK4 metric is the headline on a
// multi-core host; subJoinTasks confirms the split engaged even where the
// host has no spare cores to convert it into wall-clock gains.
func BenchmarkFigure10b_IntraWorkerSpeedup(b *testing.B) {
	s := suite()
	var st *experiments.SpeedupStudy
	var err error
	for i := 0; i < b.N; i++ {
		if st, err = s.Speedup(s.Workers, []int{1, 2, 4, 8}); err != nil {
			b.Fatal(err)
		}
	}
	var tasks int64
	for _, r := range st.Rows {
		if r.Query == "Q1" && r.K == 4 {
			b.ReportMetric(r.Speedup, "wallSpeedupK4")
		}
		tasks += r.JoinTasks
	}
	b.ReportMetric(float64(tasks), "subJoinTasks")
	logRender(b, func(w interface{ Write([]byte) (int, error) }) { st.Render(w) })
}

func BenchmarkFigure11_ShareOptimizers(b *testing.B) {
	s := suite()
	var f *experiments.ShareOptimizers
	var err error
	for i := 0; i < b.N; i++ {
		if f, err = s.Figure11([]string{"Q1", "Q2", "Q3", "Q4"}, []int{64, 63, 65}); err != nil {
			b.Fatal(err)
		}
	}
	worstOurs, worstRD := 0.0, 0.0
	for _, r := range f.Rows {
		if r.OurAlg > worstOurs {
			worstOurs = r.OurAlg
		}
		if r.RoundDn > worstRD {
			worstRD = r.RoundDn
		}
	}
	b.ReportMetric(worstOurs, "ourWorstRatio")
	b.ReportMetric(worstRD, "roundDownWorstRatio")
	logRender(b, func(w interface{ Write([]byte) (int, error) }) { f.Render(w) })
}

func BenchmarkFigure12_CostModelScatter(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		for _, q := range []string{"Q3", "Q7", "Q8"} {
			st, err := s.OrderStudy(q, 10, 20*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(st.Correlation, q+"Corr")
		}
	}
}

func BenchmarkSemijoin_Q3Q7(b *testing.B) {
	s := suite()
	var st *experiments.SemijoinStudy
	var err error
	for i := 0; i < b.N; i++ {
		if st, err = s.SemijoinStudy("Q3", "Q7"); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range st.Rows {
		b.ReportMetric(float64(r.SemiShuffled), r.Query+"SemiTuples")
	}
	logRender(b, func(w interface{ Write([]byte) (int, error) }) { st.Render(w) })
}

// --- Ablations (design choices called out in DESIGN.md) --------------------

// BenchmarkAblation_TJSortedArraysVsHashTree compares the local multiway
// Tributary join against a tree of local hash joins on identical data — the
// paper's argument for sorting over on-the-fly index structures.
func BenchmarkAblation_TJSortedArraysVsHashTree(b *testing.B) {
	w := suite().Workload()
	q := w.Query("Q1")
	rels, err := w.AtomRelations(q)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("tributary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, _, err := ljoin.Evaluate(q, rels, q.Vars())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(out.Cardinality()), "triangles")
		}
	})
	b.Run("hashTree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := rels[q.Atoms[0].Alias]
			rs := ljoin.HashJoin(e, rels[q.Atoms[1].Alias], []int{1}, []int{0}) // (x,y)⋈(y,z)
			out := ljoin.HashJoin(rs, rels[q.Atoms[2].Alias], []int{2, 0}, []int{0, 1})
			b.ReportMetric(float64(out.Cardinality()), "triangles")
			b.ReportMetric(float64(rs.Cardinality()), "intermediate")
		}
	})
}

// BenchmarkAblation_BatchSize sweeps the exchange batch granularity.
func BenchmarkAblation_BatchSize(b *testing.B) {
	w := suite().Workload()
	for _, batch := range []int{64, 1024, 8192} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			db := Open(8, WithBatchSize(batch))
			defer db.Close()
			tw := w.Relations["Twitter"]
			edges := make([][2]int64, len(tw.Tuples))
			for i, t := range tw.Tuples {
				edges[i] = [2]int64{t[0], t[1]}
			}
			if err := db.LoadEdges("E", edges); err != nil {
				b.Fatal(err)
			}
			pq, err := db.Query("T(x,y,z) :- E(x,y), E(y,z), E(z,x)")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pq.RunWith(b.Context(), HyperCubeTributary); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_EvenDimTieBreak quantifies Algorithm 1's even-dimension
// tie-break: on a relation skewed in one attribute, 2×2 shares bound the
// worst worker far better than 1×4.
func BenchmarkAblation_EvenDimTieBreak(b *testing.B) {
	// A(x,y) with a hot y value: the 1×4 configuration hashes only y, so
	// the hot key pins a quarter of the data to one worker; 2×2 also
	// hashes x and splits the hot key across workers.
	a := rel.New("A", "x", "y")
	for i := int64(0); i < 20000; i++ {
		y := i % 1000
		if i%4 == 0 {
			y = 7 // hot key
		}
		a.AppendRow(i, y)
	}
	bRel := a.Rename("B", "x", "y")
	q := core.MustParseRule("Q(x,y) :- A(x,y), B(x,y)", nil)
	relations := map[string]*rel.Relation{"A": a, "B": bRel}
	for _, dims := range [][]int{{2, 2}, {1, 4}} {
		b.Run(fmt.Sprintf("%dx%d", dims[0], dims[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := shares.Config{Vars: q.JoinVars(), Dims: dims}
				alloc := shares.OneCellPerWorker(cfg, cfg.Cells())
				loads, err := hypercube.SimulateLoads(q, relations, alloc)
				if err != nil {
					b.Fatal(err)
				}
				var max, total int64
				for _, l := range loads {
					total += l
					if l > max {
						max = l
					}
				}
				b.ReportMetric(float64(max)/(float64(total)/float64(len(loads))), "skew")
			}
		})
	}
}
