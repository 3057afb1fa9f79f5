package parajoin

import (
	"context"
	"testing"
)

// Planning benchmarks. "Cold" means no plan cache: every iteration runs the
// share optimization and the variable-order search. The statistics those
// read are collected once per data epoch, so Cold iterations after the first
// pay no relation scan; the ColdCatalog variant reloads the relation before
// each plan (outside the timer) to price the first plan of an epoch.
// "Cached" adds the plan cache, which skips both searches on a shape hit.
//
//	go test -run '^$' -bench 'PlanOnly|FiveCycle' -benchtime 20x -benchmem .

func benchEdges() [][2]int64 { return SyntheticGraph(20000, 1200, 5) }

func cacheBenchDB(b *testing.B, planCache bool) *DB {
	b.Helper()
	opts := []Option{WithSeed(7)}
	if planCache {
		opts = append(opts, WithPlanCache(0))
	}
	db := Open(4, opts...)
	b.Cleanup(func() { db.Close() })
	if err := db.LoadEdges("E", benchEdges()); err != nil {
		b.Fatal(err)
	}
	return db
}

// benchPlanOnly times planFor alone — the planning component the cache
// accelerates — for a two-hop parameterized query.
func benchPlanOnly(b *testing.B, planCache, reload bool) {
	db := cacheBenchDB(b, planCache)
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
		if _, _, _, err := q.planFor(Auto); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanOnlyCold(b *testing.B)        { benchPlanOnly(b, false, false) }
func BenchmarkPlanOnlyColdCatalog(b *testing.B) { benchPlanOnly(b, false, true) }
func BenchmarkPlanOnlyCached(b *testing.B)      { benchPlanOnly(b, true, false) }

// benchFiveCycle runs a 5-variable cycle end to end: the order search over
// five variables makes planning the dominant cost, so the plan cache cuts
// total latency, not just planning time.
func benchFiveCycle(b *testing.B, planCache bool) {
	db := cacheBenchDB(b, planCache)
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

func BenchmarkFiveCycleCold(b *testing.B)   { benchFiveCycle(b, false) }
func BenchmarkFiveCycleCached(b *testing.B) { benchFiveCycle(b, true) }
