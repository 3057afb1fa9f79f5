package ljoin

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"parajoin/internal/core"
	"parajoin/internal/rel"
)

// TestTrieSeekAccounting pins what a trie counts as a seek on a fixed
// arity-3 input with a repeated row: Open, Up, and Next at a directory
// level count nothing; a SeekGE that moves counts one, one that stays
// counts nothing; each Next at the leaf is one run-end search.
func TestTrieSeekAccounting(t *testing.T) {
	r := rel.New("A", "a", "b", "c")
	for _, row := range [][3]int64{{4, 1, 9}, {1, 1, 2}, {1, 3, 5}, {2, 2, 2}, {1, 1, 2}, {4, 1, 1}, {1, 1, 1}} {
		r.AppendRow(row[0], row[1], row[2])
	}
	tr := newArrayTrie(pack(r.Sort()))
	if l := tr.levels[0]; !slices.Equal(l.keys, []int64{1, 2, 4}) || !slices.Equal(l.child, []int{0, 2, 3, 4}) {
		t.Fatalf("level 0 directory: keys %v children %v", l.keys, l.child)
	}
	if l := tr.levels[1]; !slices.Equal(l.keys, []int64{1, 3, 2, 1}) || !slices.Equal(l.child, []int{0, 3, 4, 5, 7}) {
		t.Fatalf("level 1 directory: keys %v children %v", l.keys, l.child)
	}
	if tr.levels[2].keys != nil {
		t.Fatalf("the leaf has a directory: %v", tr.levels[2].keys)
	}

	c := tr.clone()
	step := func(what string, do func(), key int64, end bool, seeks int64) {
		t.Helper()
		do()
		if c.AtEnd() != end || (!end && c.Key() != key) || c.seeks != seeks {
			t.Fatalf("%s: key %d end %t seeks %d, want key %d end %t seeks %d",
				what, c.Key(), c.AtEnd(), c.seeks, key, end, seeks)
		}
	}
	step("open level 0", c.Open, 1, false, 0)
	step("next at level 0", c.Next, 2, false, 0)
	step("seek 2 at 2", func() { c.SeekGE(2) }, 2, false, 0)
	step("seek 3 at level 0", func() { c.SeekGE(3) }, 4, false, 1)
	step("open level 1", c.Open, 1, false, 1)
	step("open the leaf", c.Open, 1, false, 1)
	step("seek 5 at the leaf", func() { c.SeekGE(5) }, 9, false, 2)
	step("next at the leaf", c.Next, 0, true, 3)
	step("up twice", func() { c.Up(); c.Up() }, 4, false, 3)
	step("next at level 0", c.Next, 0, true, 3)

	c = tr.clone()
	step("open level 0", c.Open, 1, false, 0)
	step("open level 1", c.Open, 1, false, 0)
	step("open the leaf", c.Open, 1, false, 0)
	step("next at the leaf", c.Next, 2, false, 1)
	step("next past a repeated row", c.Next, 0, true, 2)
	step("up", c.Up, 1, false, 2)
	step("next at level 1", c.Next, 3, false, 2)
	step("open the leaf", c.Open, 5, false, 2)
	step("seek 6 at the leaf", func() { c.SeekGE(6) }, 0, true, 3)
	step("seek 7 at the end", func() { c.SeekGE(7) }, 0, true, 3)
	if tr.seeks != 0 {
		t.Fatalf("clones' seeks reached the original: %d", tr.seeks)
	}
}

// TestTrieDirectoryWorstCase pins the directory's worst case: when every
// prefix is distinct, each level above the leaf holds one key and one
// child offset per row, 16·(arity−1) B per row beside the 8 B packed row.
func TestTrieDirectoryWorstCase(t *testing.T) {
	const n = 1000
	for arity := 2; arity <= 3; arity++ {
		r := rel.New("R", "a", "b", "c")
		r.Schema = r.Schema[:arity]
		for i := range int64(n) {
			r.AppendRow(append([]int64{i}, make([]int64, arity-1)...)...)
		}
		tr := newArrayTrie(pack(r))
		if tr.w != 1 || len(tr.levels[0].keys) != n {
			t.Fatalf("arity %d: %d words per row, %d level-0 keys", arity, tr.w, len(tr.levels[0].keys))
		}
		// Each directory level's child slice has one extra end offset.
		want := float64(8*n+(arity-1)*(16*n+8)) / n
		if got := trieBytesPerRow(&Prepared{tries: []*arrayTrie{tr}}); got != want {
			t.Fatalf("arity %d: %.3f trie bytes per row, want %.3f", arity, got, want)
		}
	}
}

// TestTrieWalkMatchesRows walks random relations of arity 1–4, narrow and
// wide, with repeated rows, through every level's Open and Next, and
// requires exactly the distinct rows in order; at every level it also
// checks SeekGE to a random value against the keys the walk found there.
func TestTrieWalkMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for arity := 1; arity <= 4; arity++ {
		for wide := range 2 {
			palette := packedPalettes[wide]
			t.Run(fmt.Sprintf("arity=%d/wide=%d", arity, wide), func(t *testing.T) {
				r := rel.New("A", make([]string, arity)...)
				for range 150 {
					row := make(rel.Tuple, arity)
					for c := range row {
						// Early columns draw from few values, so prefixes repeat.
						row[c] = palette[rng.Intn(min(len(palette), 2+2*c))]
					}
					r.Tuples = append(r.Tuples, row, row)
				}
				r.Sort()
				tr := newArrayTrie(pack(r))
				want := r.Clone().Dedup().Sort().Tuples

				var got []rel.Tuple
				prefix := make(rel.Tuple, 0, arity)
				var walk func()
				walk = func() {
					tr.Open()
					var keys []int64
					for ; !tr.AtEnd(); tr.Next() {
						keys = append(keys, tr.Key())
						prefix = append(prefix, tr.Key())
						if len(prefix) == arity {
							got = append(got, prefix.Clone())
						} else {
							walk()
						}
						prefix = prefix[:len(prefix)-1]
					}
					tr.Up()

					v := palette[rng.Intn(len(palette))]
					i, _ := slices.BinarySearch(keys, v)
					tr.Open()
					tr.SeekGE(v)
					if tr.AtEnd() != (i == len(keys)) || (i < len(keys) && tr.Key() != keys[i]) {
						t.Fatalf("under %v: SeekGE(%d) over %v gave end %t key %d", prefix, v, keys, tr.AtEnd(), tr.Key())
					}
					tr.Up()
				}
				walk()
				if len(got) != len(want) {
					t.Fatalf("walk gave %d rows, want %d distinct", len(got), len(want))
				}
				for i := range want {
					if !got[i].Equal(want[i]) {
						t.Fatalf("row %d: walk gave %v, want %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestTwoWayStopCheck pins the stop check's period on a level with two
// participants and on one with three: a check that always says stop ends
// the join at the 4096th common value, after 4095 rows.
func TestTwoWayStopCheck(t *testing.T) {
	for _, atoms := range []int{2, 3} {
		var as []core.Atom
		rels := map[string]*rel.Relation{}
		for i := range atoms {
			name := fmt.Sprintf("A%d", i)
			as = append(as, core.NewAtom(name, core.V("x")))
			r := rel.New(name, "x")
			for v := range 6000 {
				// Every atom holds v; only atom i holds the values in between.
				r.AppendRow(int64(v * 4))
				r.AppendRow(int64(v*4 + 1 + i))
			}
			rels[name] = r
		}
		q := core.MustQuery("Q", nil, as)
		p, err := Prepare(q, rels, []core.Var{"x"})
		if err != nil {
			t.Fatal(err)
		}
		p.SetStopCheck(func() bool { return true })
		rows := 0
		if err := p.Run(func(rel.Tuple) bool { rows++; return true }); err != nil {
			t.Fatal(err)
		}
		if !p.Stopped() || rows != 4095 {
			t.Fatalf("%d atoms: stopped %t after %d rows, want stopped after 4095", atoms, p.Stopped(), rows)
		}
	}
}

// TestTwoWayShardsMatchSerial runs the 4-cycle, whose every level has two
// participants, on random graphs: the serial join returns the naive
// evaluator's rows, and every sharded run, its shards concurrent, returns
// the serial rows in the serial order.
func TestTwoWayShardsMatchSerial(t *testing.T) {
	q := core.MustQuery("FourCycle", nil, []core.Atom{
		core.NewAtom("A", core.V("w"), core.V("x")),
		core.NewAtom("B", core.V("x"), core.V("y")),
		core.NewAtom("C", core.V("y"), core.V("z")),
		core.NewAtom("D", core.V("z"), core.V("w")),
	})
	for seed := int64(1); seed <= 3; seed++ {
		rels := map[string]*rel.Relation{}
		for i, atom := range q.Atoms {
			rels[atom.Alias] = randGraph(atom.Alias, 300, 30, 10*seed+int64(i))
		}
		want, err := NaiveEvaluate(q, rels)
		if err != nil {
			t.Fatal(err)
		}
		for _, order := range [][]core.Var{{"w", "x", "y", "z"}, {"y", "w", "z", "x"}} {
			serial := runSerial(t, q, rels, order)
			if got := (&rel.Relation{Schema: want.Schema, Tuples: serial}); want.Cardinality() == 0 || !got.Equal(want) {
				t.Fatalf("seed %d order %v: %d rows, naive %d (want a non-empty join)", seed, order, len(serial), want.Cardinality())
			}
			for _, k := range []int{2, 3, 7} {
				sharded, ok := runSharded(t, q, rels, order, k, true)
				if !ok || !sameRows(sharded, serial) {
					t.Fatalf("seed %d order %v: %d shards (split %t) gave %d rows, not the serial %d in order",
						seed, order, k, ok, len(sharded), len(serial))
				}
			}
		}
	}
}
