package hypercube

import (
	"math/rand"
	"runtime"
	"testing"

	"parajoin/internal/core"
	"parajoin/internal/rel"
	"parajoin/internal/shares"
)

func BenchmarkRouterDestinations(b *testing.B) {
	g := NewGrid(shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{4, 4, 4}})
	r := g.RouterFor(core.NewAtom("R", core.V("x"), core.V("y")))
	t := rel.Tuple{12345, 67890}
	var dst []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = r.Destinations(t, dst[:0])
	}
	_ = dst
}

func BenchmarkSimulateLoads(b *testing.B) {
	q := triangleQuery()
	mk := func(seed int64) *rel.Relation {
		r := rel.New("X", "a", "b")
		for i := int64(0); i < 20000; i++ {
			r.AppendRow(i*seed%9973, i%9973)
		}
		return r
	}
	relations := map[string]*rel.Relation{"R": mk(3), "S": mk(5), "T": mk(7)}
	cfg := shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{4, 4, 4}}
	alloc := shares.OneCellPerWorker(cfg, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateLoads(q, relations, alloc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoute gives the route layer its per-tuple figures over the
// 490 000 tuples one cyclic_hc_tj pass shuffles (arity-2 edges, node ids
// below 5 000, to 64 workers): WorkerRoutes.Of for the triangle's first
// atom on a 4×4×4 grid with one cell per worker, the HyperCube router's
// lookup, and the hash route, rel.HashTuple on one column modulo the
// workers. Each arm counts the tuples per worker.
func BenchmarkRoute(b *testing.B) {
	const n, workers = 490000, 64
	rng := rand.New(rand.NewSource(1))
	input := make([]rel.Tuple, n)
	for i := range input {
		input[i] = rel.Tuple{rng.Int63n(5000), rng.Int63n(5000)}
	}
	cfg := shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{4, 4, 4}}
	routes := NewGrid(cfg).RouterFor(triangleQuery().Atoms[0]).WorkerRoutes(shares.OneCellPerWorker(cfg, workers).Assign, workers)
	cols := []int{1}
	loads := make([]int64, workers)
	for _, arm := range []struct {
		name  string
		route func(rel.Tuple)
	}{
		{"hypercube", func(t rel.Tuple) {
			for _, w := range routes.Of(t) {
				loads[w]++
			}
		}},
		{"hash", func(t rel.Tuple) { loads[rel.HashTuple(7, t, cols)%workers]++ }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, t := range input {
					arm.route(t)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			tuples := float64(b.N * n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tuples, "ns/tuple")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/tuples, "B/tuple")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/tuples, "allocs/tuple")
		})
	}
}
