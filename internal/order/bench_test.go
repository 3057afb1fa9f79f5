package order

import (
	"testing"

	"parajoin/internal/core"
	"parajoin/internal/rel"
	"parajoin/internal/stats"
)

func benchInputs() (*core.Query, map[string]*rel.Relation) {
	q := core.MustQuery("Triangle", nil, []core.Atom{
		core.NewAtom("R", core.V("x"), core.V("y")),
		core.NewAtom("S", core.V("y"), core.V("z")),
		core.NewAtom("T", core.V("z"), core.V("x")),
	})
	return q, map[string]*rel.Relation{
		"R": randGraph("R", 20000, 2000, 301),
		"S": randGraph("S", 20000, 2000, 302),
		"T": randGraph("T", 20000, 2000, 303),
	}
}

func benchEstimator(b *testing.B) *Estimator {
	b.Helper()
	e, err := NewEstimator(benchInputs())
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func BenchmarkCostColdCache(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := benchEstimator(b)
		b.StartTimer()
		if _, err := e.Cost([]core.Var{"x", "y", "z"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBestExhaustive(b *testing.B) {
	e := benchEstimator(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Best(1000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBestBeam(b *testing.B) {
	e := benchEstimator(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.BestBeam(16); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSearch prices the whole order search of one plan — estimator set-up
// plus Best — the way the planner runs it: with nil, the estimator collects
// every statistic itself (what a caller without a catalog pays per query);
// with a catalog, it reads them from the catalog's memo, which the first
// iteration fills.
func benchSearch(b *testing.B, catalog func([]*rel.Relation) *stats.Catalog) {
	q, rels := benchInputs()
	var cat *stats.Catalog
	if catalog != nil {
		cat = catalog([]*rel.Relation{rels["R"], rels["S"], rels["T"]})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewEstimatorWith(q, rels, cat)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := e.Best(1000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchCold(b *testing.B) { benchSearch(b, nil) }
func BenchmarkSearchWarmCatalog(b *testing.B) {
	benchSearch(b, func(rs []*rel.Relation) *stats.Catalog { return stats.NewCatalog(rs...) })
}
