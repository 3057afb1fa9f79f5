package parajoin

import (
	"context"
	"testing"
)

// Planning benchmarks. Every plan is cold: each iteration runs the share
// optimization and the variable-order search. The statistics those read are
// collected once per data epoch, so iterations after the first pay no
// relation scan; the ColdCatalog variant reloads the relation before each
// plan (outside the timer) to price the first plan of an epoch.
//
//	go test -run '^$' -bench 'PlanOnly|FiveCycle' -benchtime 20x -benchmem .

func benchEdges() [][2]int64 { return SyntheticGraph(20000, 1200, 5) }

func planBenchDB(b *testing.B) *DB {
	b.Helper()
	db := Open(4)
	b.Cleanup(func() { db.Close() })
	if err := db.LoadEdges("E", benchEdges()); err != nil {
		b.Fatal(err)
	}
	return db
}

// benchPlanOnly times planFor alone for a two-hop parameterized query.
func benchPlanOnly(b *testing.B, reload bool) {
	db := planBenchDB(b)
	p, err := db.Prepare("R(x,z) :- E(x,y), E(y,z), E(z,?)")
	if err != nil {
		b.Fatal(err)
	}
	q, err := p.Bind(3)
	if err != nil {
		b.Fatal(err)
	}
	edges := benchEdges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if reload {
			b.StopTimer()
			if err := db.LoadEdges("E", edges); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, _, err := q.planFor(Auto); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanOnlyCold(b *testing.B)        { benchPlanOnly(b, false) }
func BenchmarkPlanOnlyColdCatalog(b *testing.B) { benchPlanOnly(b, true) }

// BenchmarkFiveCycleCold runs a 5-variable cycle end to end: the order
// search over five variables makes this the most planning-heavy served
// shape.
func BenchmarkFiveCycleCold(b *testing.B) {
	db := planBenchDB(b)
	p, err := db.Prepare("R(v,w,x,y,z) :- E(v,w), E(w,x), E(x,y), E(y,z), E(z,v), E(v,?)")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := p.Execute(ctx, 3); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Execute(ctx, 3); err != nil {
			b.Fatal(err)
		}
	}
}
