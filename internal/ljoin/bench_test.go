package ljoin

import (
	"testing"

	"parajoin/internal/core"
	"parajoin/internal/rel"
)

func benchRels(b *testing.B, n int) (*core.Query, map[string]*rel.Relation) {
	b.Helper()
	q := triangleQuery()
	rels := map[string]*rel.Relation{
		"R": randGraph("R", n, n/12, 201),
		"S": randGraph("S", n, n/12, 202),
		"T": randGraph("T", n, n/12, 203),
	}
	return q, rels
}

func BenchmarkTributaryTriangle(b *testing.B) {
	q, rels := benchRels(b, 12000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := Evaluate(q, rels, []core.Var{"x", "y", "z"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(out.Cardinality()), "triangles")
	}
}

func BenchmarkTributaryPrepareSort(b *testing.B) {
	q, rels := benchRels(b, 12000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Prepare(q, rels, []core.Var{"x", "y", "z"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashJoinLocal(b *testing.B) {
	r := randGraph("R", 20000, 2000, 204)
	s := randGraph("S", 20000, 2000, 205)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := HashJoin(r, s, []int{1}, []int{0})
		b.ReportMetric(float64(out.Cardinality()), "tuples")
	}
}

func BenchmarkLeapfrogIntersection(b *testing.B) {
	mk := func(seed int64) *arrayTrie {
		r := randGraph("A", 30000, 40000, seed).Project("A", []int{0})
		r.Dedup()
		return newArrayTrie(pack(r))
	}
	t1, t2, t3 := mk(206), mk(207), mk(208)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rebuild cursors cheaply by reopening at the root.
		t1.depth, t2.depth, t3.depth = -1, -1, -1
		t1.Open()
		t2.Open()
		t3.Open()
		lf := leapfrog{iters: []*arrayTrie{t1, t2, t3}}
		lf.init()
		n := 0
		for !lf.atEnd {
			n++
			lf.next()
		}
		b.ReportMetric(float64(n), "common")
	}
}

// BenchmarkTributaryFourCycle runs the 4-cycle A(w,x), B(x,y), C(y,z),
// D(z,w) over inputs normalized, sorted and packed once, as the engine
// hands them to PrepareSorted, so each iteration is the trie build and
// the join alone. It reports ns per seek and the tries' resident bytes per
// input row.
func BenchmarkTributaryFourCycle(b *testing.B) {
	q := core.MustQuery("FourCycle", nil, []core.Atom{
		core.NewAtom("A", core.V("w"), core.V("x")),
		core.NewAtom("B", core.V("x"), core.V("y")),
		core.NewAtom("C", core.V("y"), core.V("z")),
		core.NewAtom("D", core.V("z"), core.V("w")),
	})
	order := []core.Var{"w", "x", "y", "z"}
	inputs := make(map[string]Sorted, len(q.Atoms))
	var rows, bytes int
	for i, atom := range q.Atoms {
		s := pack(NormalizeAtom(atom, randGraph(atom.Alias, 8000, 900, int64(210+i)), order).Sort())
		inputs[atom.Alias] = s
		rows, bytes = rows+s.Rows, bytes+8*len(s.Words)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var seeks, cycles int64
	for i := 0; i < b.N; i++ {
		p, err := PrepareSorted(q, inputs, order)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Run(func(rel.Tuple) bool { return true }); err != nil {
			b.Fatal(err)
		}
		st := p.Stats()
		seeks, cycles = seeks+st.Seeks, st.Results
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(seeks), "ns/seek")
	b.ReportMetric(float64(cycles), "cycles")
	b.ReportMetric(float64(bytes)/float64(rows), "trie_B/row")
}
