package experiments

import (
	"slices"
	"testing"

	"parajoin/internal/core"
	"parajoin/internal/engine"
	"parajoin/internal/planner"
	"parajoin/internal/shares"
)

// lpFactor bounds Algorithm 1's workload against the fractional LP optimum
// (Figure 11's ratio) at N = 63, 64 and 65. The worst cell at tinySuite
// scale is Q2 at N=63, 1.10.
const lpFactor = 1.15

// TestPaperClaims asserts the comparisons the paper's evaluation rests on
// as deterministic counters at tinySuite scale, so they hold on any host:
// tuples shuffled, consumer skew, peak resident tuples, tuples sorted and
// the share optimizer's workload ratio. Wall and CPU time are not checked.
func TestPaperClaims(t *testing.T) {
	s := tinySuite()
	defer s.Close()
	w := s.Workload()

	sweeps := map[string]*SixConfigs{}
	for _, name := range w.Names() {
		sc, err := s.SixConfigs(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range sc.Rows {
			if r.Failed {
				t.Fatalf("%s %v failed: %s", name, r.Config, r.FailWhy)
			}
		}
		sweeps[name] = sc
	}

	// Figures 3-4 and Tables 2-3: on cyclic queries the one HyperCube round
	// ships less than the regular shuffles' intermediate results, and its
	// busiest consumer is no more overloaded.
	t.Run("HyperCubeShufflesLessOnCyclicQueries", func(t *testing.T) {
		for _, name := range w.Names() {
			if core.IsAcyclic(w.Query(name)) {
				continue
			}
			hc, rs := sweeps[name].Row(planner.HCTJ), sweeps[name].Row(planner.RSHJ)
			if hc.Shuffled >= rs.Shuffled {
				t.Errorf("%s: HC shuffled %d tuples, RS %d; want HC below RS", name, hc.Shuffled, rs.Shuffled)
			}
			if hs, rsk := hc.Report.MaxConsumerSkew(), rs.Report.MaxConsumerSkew(); hs > rsk {
				t.Errorf("%s: HC max consumer skew %.2f above RS %.2f", name, hs, rsk)
			}
		}
	})

	// Table 5's memory side: Tributary holds its sorted inputs, the hash
	// tree also holds the intermediate results it builds.
	t.Run("TributaryHoldsLessThanHashTree", func(t *testing.T) {
		for _, name := range w.Names() {
			tj, hj := peakResident(sweeps[name].Row(planner.HCTJ)), peakResident(sweeps[name].Row(planner.HCHJ))
			if tj >= hj {
				t.Errorf("%s: HC_TJ peak resident %d tuples, HC_HJ %d; want TJ below HJ", name, tj, hj)
			}
		}
	})

	// Table 5 in counter form: each Tributary plan sorts exactly what its
	// routing delivers. Broadcast keeps one relation in place and copies
	// the others to every worker; HyperCube replicates each atom's tuples
	// along the dimensions of the variables the atom does not bind.
	t.Run("SortedTuplesMatchRouting", func(t *testing.T) {
		for _, name := range []string{"Q1", "Q2"} {
			q := w.Query(name)
			rels, err := w.AtomRelations(q)
			if err != nil {
				t.Fatal(err)
			}
			hc := sweeps[name].Row(planner.HCTJ)
			var wantBR, wantHC, largest int64
			for _, a := range q.Atoms {
				size := int64(rels[a.Alias].Cardinality())
				largest = max(largest, size)
				wantBR += size * int64(s.Workers)
				wantHC += size * replication(hc.Plan.HC, a)
			}
			wantBR -= largest * int64(s.Workers-1)
			if got := totalSorted(sweeps[name].Row(planner.BRTJ)); got != wantBR {
				t.Errorf("%s: BR_TJ sorted %d tuples, routing predicts %d", name, got, wantBR)
			}
			if got := totalSorted(hc); got != wantHC {
				t.Errorf("%s: HC_TJ under %v sorted %d tuples, routing predicts %d", name, hc.Plan.HC, got, wantHC)
			}
		}
	})

	// §3.6: the semijoin reduction's extra rounds cost shuffle volume.
	t.Run("SemijoinPaysInShuffles", func(t *testing.T) {
		st, err := s.SemijoinStudy("Q3")
		if err != nil {
			t.Fatal(err)
		}
		r := st.Rows[0]
		for _, cfg := range []planner.PlanConfig{planner.RSHJ, planner.RSTJ} {
			if rs := sweeps["Q3"].Row(cfg).Shuffled; r.SemiShuffled < rs {
				t.Errorf("Q3: semijoin plan shuffled %d tuples, %v %d; want semijoin ≥ RS", r.SemiShuffled, cfg, rs)
			}
		}
	})

	// Figure 11: Algorithm 1's integral shares track the LP and never do
	// worse than rounding the fractional shares down.
	t.Run("Algorithm1TracksLP", func(t *testing.T) {
		f, err := s.Figure11([]string{"Q1", "Q2", "Q3", "Q4"}, []int{63, 64, 65})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range f.Rows {
			if r.OurAlg > lpFactor {
				t.Errorf("%s N=%d: Algorithm 1 ratio %.3f above %.2f× the LP", r.Query, r.Workers, r.OurAlg, lpFactor)
			}
			if r.OurAlg > r.RoundDn+1e-9 {
				t.Errorf("%s N=%d: Algorithm 1 ratio %.3f above round-down %.3f", r.Query, r.Workers, r.OurAlg, r.RoundDn)
			}
		}
	})

	// Figure 10b: the K sweep completes and every K returns the serial
	// answer count (Speedup fails otherwise).
	t.Run("IntraWorkerSweepCompletes", func(t *testing.T) {
		if _, err := s.Speedup(s.Workers, []int{1, 2, 4, 8}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestParallelJoinsMatchSerial runs Figure 3's six configurations with up
// to four concurrent sub-joins per worker and checks each against the
// serial run: same answer count, same tuples shuffled, and the Tributary
// plans really split.
func TestParallelJoinsMatchSerial(t *testing.T) {
	s := tinySuite()
	defer s.Close()
	q := s.Workload().Query("Q1")
	for _, cfg := range planner.Configs {
		serial, err := s.runOn(q, cfg, s.Workers, engine.RunOpts{Parallelism: -1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := s.runOn(q, cfg, s.Workers, engine.RunOpts{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if serial.Failed || par.Failed {
			t.Fatalf("%v failed: serial %q, K=4 %q", cfg, serial.FailWhy, par.FailWhy)
		}
		if par.Results != serial.Results || par.Shuffled != serial.Shuffled {
			t.Errorf("%v: K=4 gave %d results, %d shuffled; serial %d, %d",
				cfg, par.Results, par.Shuffled, serial.Results, serial.Shuffled)
		}
		// Only the Tributary join splits into sub-joins.
		tj := slices.Contains([]planner.PlanConfig{planner.RSTJ, planner.BRTJ, planner.HCTJ}, cfg)
		if tj && par.Report.JoinTasks == 0 {
			t.Errorf("%v: K=4 ran no sub-joins", cfg)
		}
	}
}

// replication is how many grid cells receive each tuple of atom a: the
// product of the dimensions of the variables a does not bind.
func replication(cfg shares.Config, a core.Atom) int64 {
	n := int64(1)
	for i, v := range cfg.Vars {
		if !a.HasVar(v) {
			n *= int64(cfg.Dims[i])
		}
	}
	return n
}

func peakResident(r *RunOutcome) int64 { return slices.Max(r.Report.PeakResidentTuples) }

func totalSorted(r *RunOutcome) int64 {
	var n int64
	for _, v := range r.Report.Sorted {
		n += v
	}
	return n
}
