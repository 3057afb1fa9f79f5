package experiments

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"parajoin/internal/core"
	"parajoin/internal/engine"
	"parajoin/internal/planner"
	"parajoin/internal/rel"
)

// TestHeldVsCharged runs Q1–Q8 under the six configurations at test
// scale and sets each worker's charge at its peak beside what it held
// then (engine.HeldAtPeak). It logs, per query and configuration and
// summed over workers, charged ÷ held for the two holders the accountant
// charges apart from what they hold — hash tables, and the Tributary
// join's sort (Sorter arenas, then sorted words and trie directories) —
// the Buffers, which hold what they are charged, and the uncharged
// holders: inbound queues and the shared batch store (the largest
// worker's reading). It names the largest over-charge and the largest
// under-charge. It asserts only what holds by construction: each
// snapshot is taken at the worker's peak, and a hash table never holds a
// value it was not charged for.
func TestHeldVsCharged(t *testing.T) {
	s := tinySuite()
	defer s.Close()
	w := s.Workload()
	type worst struct {
		what string
		v    float64
	}
	var over, under worst
	t.Logf("%-3s %-6s %9s %25s %25s %9s %9s %9s", "q", "config", "charged", "hash charged/held", "sort charged/held", "buffered", "queued", "store")
	for _, name := range w.Names() {
		sc, err := s.SixConfigs(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range sc.Rows {
			if r.Failed {
				t.Fatalf("%s %v failed: %s", name, r.Config, r.FailWhy)
			}
			var sum engine.HeldAtPeak
			var store int64
			for wk, h := range r.Report.HeldAtPeak {
				if p := r.Report.PeakResidentTuples[wk]; h.Charged != p {
					t.Errorf("%s %v worker %d: snapshot at %d tuples, peak %d", name, r.Config, wk, h.Charged, p)
				}
				if h.Hash > h.HashCharged {
					t.Errorf("%s %v worker %d: hash tables hold %d values, charged %d", name, r.Config, wk, h.Hash, h.HashCharged)
				}
				sum.Charged += h.Charged
				sum.HashCharged += h.HashCharged
				sum.SortCharged += h.SortCharged
				sum.Buffered += h.Buffered
				sum.Hash += h.Hash
				sum.Sorted += h.Sorted
				sum.Queued += h.Queued
				store = max(store, h.Store)
			}
			label := fmt.Sprintf("%s %v", name, r.Config)
			t.Logf("%-3s %-6v %9d %25s %25s %9d %9d %9d", name, r.Config, sum.Charged,
				ratio(sum.HashCharged, sum.Hash), ratio(sum.SortCharged, sum.Sorted), sum.Buffered, sum.Queued, store)
			for _, k := range []struct {
				kind          string
				charged, held int64
			}{
				{"hash tables", sum.HashCharged, sum.Hash},
				{"sort", sum.SortCharged, sum.Sorted},
				{"queues", 0, sum.Queued},
				{"batch store", 0, store},
			} {
				if k.held > 0 && float64(k.charged)/float64(k.held) > over.v {
					over = worst{label + " " + k.kind, float64(k.charged) / float64(k.held)}
				}
				if d := float64(k.held - k.charged); d > under.v {
					under = worst{label + " " + k.kind, d}
				}
			}
		}
	}
	t.Logf("largest over-charge: %s, %.2f× what it holds", over.what, over.v)
	t.Logf("largest under-charge: %s, %.0f values held beyond the charge", under.what, under.v)
}

// TestSpillPolicyKeepsAnswerAndPeak runs Q1–Q8 and a three-hop path,
// whose answer outgrows its input, under the six configurations with
// spilling off and on-pressure, under a budget neither run comes near. The
// policy only decides whether a holder may seal, and the answer is
// charged under neither, so both runs must return the same rows and
// charge every worker the same peak. RS_TJ's peaks are left out: its
// workers run several Tributary joins at once, each releasing its Sorters
// when its join has run while the next one's Sorters fill, so where a
// worker peaks follows the schedule and moves from run to run under either
// policy.
func TestSpillPolicyKeepsAnswerAndPeak(t *testing.T) {
	s := tinySuite()
	defer s.Close()
	w := s.Workload()
	path := core.MustParseRule("Path(x,y,z,p) :- Twitter(x,y), Twitter(y,z), Twitter(z,p)", nil)
	qs := []*core.Query{path}
	for _, name := range w.Names() {
		qs = append(qs, w.Query(name))
	}
	c, p := s.Cluster(s.Workers), s.Planner(s.Workers)
	for _, q := range qs {
		for _, cfg := range planner.Configs {
			res, err := p.Plan(q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var outs [2]*rel.Relation
			var reps [2]*engine.Report
			for i, pol := range []engine.SpillPolicy{engine.SpillOff, engine.SpillOnPressure} {
				out, rep, err := c.RunRoundsOpts(context.Background(), res.Rounds, engine.RunOpts{Spill: pol, SpillDir: t.TempDir()})
				if err != nil {
					t.Fatalf("%s %v, spill %v: %v", q.Name, cfg, pol, err)
				}
				if rep.SpillSegments != 0 {
					t.Fatalf("%s %v, spill %v: %d segments sealed under a budget of %d tuples",
						q.Name, cfg, pol, rep.SpillSegments, s.MemLimitTuples)
				}
				outs[i], reps[i] = out, rep
			}
			if !outs[0].Equal(outs[1]) {
				t.Errorf("%s %v: %d rows with spilling off, %d on-pressure, or not the same rows",
					q.Name, cfg, outs[0].Cardinality(), outs[1].Cardinality())
			}
			if cfg == planner.RSTJ {
				continue // its peaks follow the schedule: see above
			}
			if off, on := reps[0].PeakResidentTuples, reps[1].PeakResidentTuples; !slices.Equal(off, on) {
				t.Errorf("%s %v: peak resident tuples %v with spilling off, %v on-pressure", q.Name, cfg, off, on)
			}
			if in := w.Relations["Twitter"].Cardinality(); q == path && outs[0].Cardinality() <= in {
				t.Fatalf("%s %v: %d rows, no more than its %d-edge input", q.Name, cfg, outs[0].Cardinality(), in)
			}
		}
	}
}

// ratio formats charged ÷ held with both figures.
func ratio(charged, held int64) string {
	if held == 0 {
		return fmt.Sprintf("%d/0", charged)
	}
	return fmt.Sprintf("%.2f (%d/%d)", float64(charged)/float64(held), charged, held)
}
