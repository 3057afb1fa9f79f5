package ljoin

import (
	"fmt"
	"sync"
	"testing"

	"parajoin/internal/core"
	"parajoin/internal/rel"
)

// runSerial prepares and runs a join serially, returning the emitted rows
// in emission order (the order parallel shards must reproduce).
func runSerial(t *testing.T, q *core.Query, rels map[string]*rel.Relation, order []core.Var) []rel.Tuple {
	t.Helper()
	p, err := Prepare(q, rels, order)
	if err != nil {
		t.Fatal(err)
	}
	var out []rel.Tuple
	if err := p.Run(func(tp rel.Tuple) bool {
		out = append(out, tp.Clone())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// runSharded prepares, splits into k shards, runs each shard — one after
// another, or all at once when concurrent is set — and concatenates outputs
// in range order. ok reports whether sharding happened at all.
func runSharded(t *testing.T, q *core.Query, rels map[string]*rel.Relation, order []core.Var, k int, concurrent bool) ([]rel.Tuple, bool) {
	t.Helper()
	p, err := Prepare(q, rels, order)
	if err != nil {
		t.Fatal(err)
	}
	shards := p.Shards(k)
	if shards == nil {
		return nil, false
	}
	outs := make([][]rel.Tuple, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		run := func() {
			errs[i] = s.Run(func(tp rel.Tuple) bool {
				outs[i] = append(outs[i], tp.Clone())
				return true
			})
		}
		if concurrent {
			wg.Add(1)
			go func() { defer wg.Done(); run() }()
		} else {
			run()
		}
	}
	wg.Wait()
	var out []rel.Tuple
	for i := range shards {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		out = append(out, outs[i]...)
	}
	return out, true
}

func sameRows(a, b []rel.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Compare(b[i]) != 0 {
			return false
		}
	}
	return true
}

// TestShardsMatchSerial is the determinism property the engine's parallel
// path rests on: for any k, shard outputs concatenated in range order are
// identical — rows and row order — to the serial run. mode=0 runs the
// shards one after another, mode=1 runs them concurrently over their shared
// backing arrays.
func TestShardsMatchSerial(t *testing.T) {
	q := triangleQuery()
	orders := [][]core.Var{{"x", "y", "z"}, {"z", "x", "y"}}
	for seed := int64(1); seed <= 5; seed++ {
		rels := map[string]*rel.Relation{
			"R": randGraph("R", 300, 25, seed),
			"S": randGraph("S", 300, 25, seed+100),
			"T": randGraph("T", 300, 25, seed+200),
		}
		for _, ord := range orders {
			want := runSerial(t, q, rels, ord)
			for mode, concurrent := range []bool{false, true} {
				for _, k := range []int{2, 3, 7, 16, 1000} {
					t.Run(fmt.Sprintf("seed=%d/order=%v/mode=%d/k=%d", seed, ord, mode, k), func(t *testing.T) {
						got, ok := runSharded(t, q, rels, ord, k, concurrent)
						if !ok {
							t.Fatalf("Shards(%d) declined on a %d-tuple pivot", k, 300)
						}
						if !sameRows(want, got) {
							t.Fatalf("sharded output diverged: %d rows vs %d serial", len(got), len(want))
						}
					})
				}
			}
		}
	}
}

// TestShardsCoverDomain checks the ranges themselves: contiguous, disjoint,
// in increasing order, first open below, last open above.
func TestShardsCoverDomain(t *testing.T) {
	q := triangleQuery()
	rels := map[string]*rel.Relation{
		"R": randGraph("R", 400, 40, 9),
		"S": randGraph("S", 400, 40, 10),
		"T": randGraph("T", 400, 40, 11),
	}
	p, err := Prepare(q, rels, []core.Var{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	shards := p.Shards(8)
	if len(shards) < 2 {
		t.Fatalf("Shards(8) = %d shards, want >= 2", len(shards))
	}
	for i, s := range shards {
		lo, hasLo, hi, hasHi := s.Range()
		if (i == 0) == hasLo {
			t.Errorf("shard %d: hasLo = %v", i, hasLo)
		}
		if (i == len(shards)-1) == hasHi {
			t.Errorf("shard %d: hasHi = %v", i, hasHi)
		}
		if i > 0 {
			_, _, prevHi, _ := shards[i-1].Range()
			if lo != prevHi {
				t.Errorf("shard %d starts at %d, previous ends at %d — gap or overlap", i, lo, prevHi)
			}
		}
		if hasLo && hasHi && lo >= hi {
			t.Errorf("shard %d: empty range [%d, %d)", i, lo, hi)
		}
	}
}

// TestShardsDegenerateCases: sharding must decline (nil) rather than
// misbehave when it cannot help.
func TestShardsDegenerateCases(t *testing.T) {
	q := triangleQuery()
	rels := map[string]*rel.Relation{
		"R": randGraph("R", 100, 10, 20),
		"S": randGraph("S", 100, 10, 21),
		"T": randGraph("T", 100, 10, 22),
	}
	ord := []core.Var{"x", "y", "z"}

	p, _ := Prepare(q, rels, ord)
	if s := p.Shards(1); s != nil {
		t.Errorf("Shards(1) = %d shards, want nil", len(s))
	}
	if s := p.Shards(0); s != nil {
		t.Errorf("Shards(0) = %d shards, want nil", len(s))
	}

	// Empty inputs: nothing to split.
	empty := map[string]*rel.Relation{
		"R": rel.New("R", "a", "b"),
		"S": rel.New("S", "a", "b"),
		"T": rel.New("T", "a", "b"),
	}
	pe, _ := Prepare(q, empty, ord)
	if s := pe.Shards(4); s != nil {
		t.Error("Shards on empty relations should decline")
	}

	// A single distinct first value cannot be cut.
	one := rel.New("R", "a", "b")
	one.AppendRow(7, 1)
	one.AppendRow(7, 2)
	one.AppendRow(7, 3)
	q1 := core.MustQuery("One", nil, []core.Atom{core.NewAtom("R", core.V("x"), core.V("y"))})
	ps, err := Prepare(q1, map[string]*rel.Relation{"R": one}, []core.Var{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if s := ps.Shards(4); s != nil {
		t.Error("Shards with one distinct pivot value should decline")
	}
}

// TestShardsParentUntouched: running shards must not perturb the parent's
// iterators or stats; the parent stays independently runnable.
func TestShardsParentUntouched(t *testing.T) {
	q := triangleQuery()
	rels := map[string]*rel.Relation{
		"R": randGraph("R", 200, 20, 30),
		"S": randGraph("S", 200, 20, 31),
		"T": randGraph("T", 200, 20, 32),
	}
	p, err := Prepare(q, rels, []core.Var{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	shards := p.Shards(4)
	if shards == nil {
		t.Fatal("Shards(4) declined")
	}
	var shardRows []rel.Tuple
	for _, s := range shards {
		s.Run(func(tp rel.Tuple) bool { shardRows = append(shardRows, tp.Clone()); return true })
	}
	if p.Stats().Seeks != 0 || p.Stats().Results != 0 {
		t.Fatalf("shard runs leaked into parent stats: %+v", p.Stats())
	}
	var parentRows []rel.Tuple
	if err := p.Run(func(tp rel.Tuple) bool { parentRows = append(parentRows, tp.Clone()); return true }); err != nil {
		t.Fatal(err)
	}
	if !sameRows(parentRows, shardRows) {
		t.Fatalf("parent run after shard runs diverged: %d vs %d rows", len(parentRows), len(shardRows))
	}
}
