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
		return newArrayTrie(flatten(r))
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
