package experiments

import (
	"fmt"
	"testing"

	"parajoin/internal/engine"
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

// ratio formats charged ÷ held with both figures.
func ratio(charged, held int64) string {
	if held == 0 {
		return fmt.Sprintf("%d/0", charged)
	}
	return fmt.Sprintf("%.2f (%d/%d)", float64(charged)/float64(held), charged, held)
}
