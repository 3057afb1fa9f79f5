package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"parajoin/internal/core"
	"parajoin/internal/hypercube"
	"parajoin/internal/rel"
	"parajoin/internal/shares"
)

// captureTransport keeps a copy of every batch sent to each destination,
// in the order sent. Routers call only Send.
type captureTransport struct {
	Transport
	got [][]rel.Batch
}

func (c *captureTransport) Send(_ context.Context, _, _, dst int, b rel.Batch) error {
	c.got[dst] = append(c.got[dst], rel.BatchOf(b.Arity, b.Len(), slices.Clone(b.Vals)))
	return nil
}

// sinkTransport hands every batch sent straight back to the batch store,
// as a receiver that has copied its rows out would.
type sinkTransport struct {
	Transport
	e *exec
}

func (s *sinkTransport) Send(_ context.Context, _, _, _ int, b rel.Batch) error {
	s.e.recycle(b)
	return nil
}

// routerExec is worker 0's exec over c for one exchange, sending through
// tr.
func routerExec(c *Cluster, spec ExchangeSpec, tr Transport) *exec {
	e := opExec(c)
	e.metrics = NewMetrics(c.Workers(), []ExchangeSpec{spec})
	e.transport = tr
	return e
}

// routeAll routes every batch of in through worker 0's router for spec and
// flushes it.
func routeAll(tb testing.TB, e *exec, spec *ExchangeSpec, sch rel.Schema, in []rel.Batch) {
	tb.Helper()
	r, err := e.router(spec, sch, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for _, b := range in {
		if err := r.route(b); err != nil {
			tb.Fatal(err)
		}
	}
	if err := r.flush(); err != nil {
		tb.Fatal(err)
	}
}

// refRoute is the per-row reference router: it asks dsts for each row's
// destinations, appends the row to each destination's batch, sends a
// batch once it holds batchSize rows and finally sends every partly filled
// batch.
func refRoute(in []rel.Batch, arity, workers, batchSize int, dsts func(rel.Tuple) []int) [][]rel.Batch {
	got := make([][]rel.Batch, workers)
	vals, rows := make([][]int64, workers), make([]int, workers)
	send := func(d int) {
		got[d] = append(got[d], rel.BatchOf(arity, rows[d], vals[d]))
		vals[d], rows[d] = nil, 0
	}
	for _, b := range in {
		for i := range b.Len() {
			t := b.Vals[i*arity : (i+1)*arity]
			for _, d := range dsts(t) {
				vals[d] = append(vals[d], t...)
				if rows[d]++; rows[d] == batchSize {
					send(d)
				}
			}
		}
	}
	for d := range rows {
		if rows[d] > 0 {
			send(d)
		}
	}
	return got
}

// routerAtom is an atom of the given arity over grid variables x, y, z and
// one variable w outside the grid: arity 1 binds x only, so its rows are
// replicated over y and z, and arity 0 goes to every cell.
func routerAtom(arity int) core.Atom {
	vars := []string{"x", "z", "w", "y"}[:arity]
	terms := make([]core.Term, arity)
	for i, v := range vars {
		terms[i] = core.V(v)
	}
	return core.NewAtom("E", terms...)
}

// refHyperCube is the per-row reference for a HyperCube exchange: the
// cells Grid.Destinations lists, mapped to workers, each worker once in
// the order its first cell comes.
func refHyperCube(spec *ExchangeSpec, workers int) func(rel.Tuple) []int {
	router := spec.Grid.RouterFor(spec.Atom)
	var cells, ws []int
	return func(t rel.Tuple) []int {
		cells, ws = router.Destinations(t, cells[:0]), ws[:0]
		for _, c := range cells {
			if w := spec.CellMap[c]; !slices.Contains(ws, w) {
				ws = append(ws, w)
			}
		}
		return ws
	}
}

// routerSpecs returns, for a schema of the given arity over workers
// workers, one exchange of each route kind and its per-row reference.
func routerSpecs(arity, workers int) ([]*ExchangeSpec, []func(rel.Tuple) []int) {
	var hashCols []string
	var cols []int
	for c := 0; c < arity; c += 2 { // every other column
		hashCols, cols = append(hashCols, fmt.Sprintf("c%d", c)), append(cols, c)
	}
	cfg := shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{2, 3, 2}}
	cellMap := make([]int, cfg.Cells())
	for i := range cellMap {
		cellMap[i] = i * 5 % workers // several cells per worker, out of order
	}
	hash := &ExchangeSpec{ID: 0, Name: "hash", Kind: RouteHash, HashCols: hashCols, Seed: 0x5eed}
	hc := &ExchangeSpec{ID: 0, Name: "hypercube", Kind: RouteHyperCube,
		Grid: hypercube.NewGrid(cfg), Atom: routerAtom(arity), CellMap: cellMap}
	bcast := &ExchangeSpec{ID: 0, Name: "broadcast", Kind: RouteBroadcast}
	all := make([]int, workers)
	for i := range all {
		all[i] = i
	}
	return []*ExchangeSpec{hash, hc, bcast}, []func(rel.Tuple) []int{
		func(t rel.Tuple) []int { return []int{int(rel.HashTuple(hash.Seed, t, cols) % uint64(workers))} },
		refHyperCube(hc, workers),
		func(rel.Tuple) []int { return all },
	}
}

// TestRouterMatchesPerRowReference drives the router and refRoute over
// the same random input batches, for every route kind, arity 0–4, two
// engine batch sizes and input batches of 1, BatchSize−1, BatchSize and
// BatchSize+1 rows, and requires every destination to receive the same
// batches: the same rows in the same order, cut at the same places.
func TestRouterMatchesPerRowReference(t *testing.T) {
	const workers = 8
	rng := rand.New(rand.NewSource(71))
	for _, batchSize := range []int{7, 1024} {
		c := NewCluster(workers)
		c.BatchSize = batchSize
		for arity := 0; arity <= 4; arity++ {
			sch := make(rel.Schema, arity)
			for i := range sch {
				sch[i] = fmt.Sprintf("c%d", i)
			}
			specs, refs := routerSpecs(arity, workers)
			for _, size := range []int{1, batchSize - 1, batchSize, batchSize + 1} {
				in := make([]rel.Batch, 5)
				for i := range in {
					vals := make([]int64, size*arity)
					for j := range vals {
						if rng.Intn(2) == 0 {
							vals[j] = rng.Int63n(50) - 25 // repeats
						} else {
							vals[j] = int64(rng.Uint64())
						}
					}
					in[i] = rel.BatchOf(arity, size, vals)
				}
				for k, spec := range specs {
					name := fmt.Sprintf("%s/batch=%d/arity=%d/rows=%d", spec.Name, batchSize, arity, size)
					tr := &captureTransport{got: make([][]rel.Batch, workers)}
					routeAll(t, routerExec(c, *spec, tr), spec, sch, in)
					want := refRoute(in, arity, workers, batchSize, refs[k])
					for d := range want {
						if !sameBatches(tr.got[d], want[d]) {
							t.Fatalf("%s: worker %d got %s, the per-row reference %s",
								name, d, describeBatches(tr.got[d]), describeBatches(want[d]))
						}
					}
				}
			}
		}
		c.Close()
	}
}

func sameBatches(a, b []rel.Batch) bool {
	return slices.EqualFunc(a, b, func(x, y rel.Batch) bool {
		return x.Arity == y.Arity && x.Len() == y.Len() && slices.Equal(x.Vals, y.Vals)
	})
}

func describeBatches(bs []rel.Batch) string {
	lens := make([]int, len(bs))
	for i := range bs {
		lens[i] = bs[i].Len()
	}
	return fmt.Sprintf("%d batches of %v rows", len(bs), lens)
}

// BenchmarkRouter gives the exchange's producer side its per-tuple
// figures: 65 536 arity-2 rows (node ids below 5 000) in full batches,
// routed to 8 workers by hash on one column, by HyperCube for the
// triangle's first atom on a 2×2×2 grid (every row to two workers), and
// by broadcast (every row to all eight). The transport recycles each sent
// batch, as a receiver that has copied its rows out does. Figures are per
// input row.
func BenchmarkRouter(b *testing.B) {
	const rows, workers = 65536, 8
	c := NewCluster(workers)
	defer c.Close()
	rng := rand.New(rand.NewSource(1))
	var in []rel.Batch
	for len(in)*c.BatchSize < rows {
		vals := make([]int64, 2*c.BatchSize)
		for i := range vals {
			vals[i] = rng.Int63n(5000)
		}
		in = append(in, rel.BatchOf(2, c.BatchSize, vals))
	}
	cfg := shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{2, 2, 2}}
	sch := rel.Schema{"src", "dst"}
	for _, spec := range []*ExchangeSpec{
		{ID: 0, Name: "hash", Kind: RouteHash, HashCols: []string{"dst"}, Seed: 7},
		{ID: 0, Name: "hypercube", Kind: RouteHyperCube, Grid: hypercube.NewGrid(cfg),
			Atom: triangleQuery().Atoms[0], CellMap: shares.OneCellPerWorker(cfg, workers).Assign},
		{ID: 0, Name: "broadcast", Kind: RouteBroadcast},
	} {
		b.Run(spec.Name, func(b *testing.B) {
			sink := &sinkTransport{}
			e := routerExec(c, *spec, sink)
			sink.e = e
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				routeAll(b, e, spec, sch, in)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			tuples := float64(b.N * rows)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tuples, "ns/tuple")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/tuples, "B/tuple")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/tuples, "allocs/tuple")
		})
	}
}
