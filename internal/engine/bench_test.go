package engine

import (
	"context"
	"runtime"
	"testing"

	"parajoin/internal/core"
	"parajoin/internal/rel"
	"parajoin/internal/shares"
)

func BenchmarkHashShuffle(b *testing.B) {
	c := NewCluster(8)
	defer c.Close()
	c.Load(randGraph("R", 50000, 5000, 210))
	plan := shuffleGather("R", []string{"dst"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Run(context.Background(), plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymmetricHashJoinPlan(b *testing.B) {
	c := NewCluster(8)
	defer c.Close()
	c.Load(randGraph("R", 20000, 2000, 211))
	c.Load(randGraph("S", 20000, 2000, 212))
	plan := rsJoinPlan()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Run(context.Background(), plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTwoPathHashJoinPlan is RS_HJ's triangle over 8 workers: R ⋈ S
// on y makes the two-path intermediate, which is shuffled on z into a
// second hash join with T, a base relation about a quarter its size. The
// second join's sides differ in size and in how they arrive: T in full
// scan batches, the two-path as each producer's join emits it. Per-tuple
// figures divide by the rows entering both joins (every exchange's
// traffic); built rows/op counts the rows the joins stored.
func BenchmarkTwoPathHashJoinPlan(b *testing.B) {
	c := NewCluster(8)
	defer c.Close()
	c.Load(randGraph("R", 8000, 2000, 217))
	c.Load(randGraph("S", 8000, 2000, 218))
	c.Load(randGraph("T", 8000, 2000, 219))
	twoPath := rsJoinPlan()
	plan := &Plan{
		Exchanges: append(twoPath.Exchanges,
			ExchangeSpec{ID: 2, Name: "RS->h(z)", Input: twoPath.Root, Kind: RouteHash, HashCols: []string{"z"}, Seed: 7},
			ExchangeSpec{ID: 3, Name: "T->h(z)", Input: Project{Input: Scan{Table: "T"}, Cols: []string{"src", "dst"}, As: []string{"z", "x"}},
				Kind: RouteHash, HashCols: []string{"z"}, Seed: 7}),
		Root: HashJoin{
			Left:     Recv{Exchange: 2, Schema: rel.Schema{"x", "y", "z"}},
			Right:    Recv{Exchange: 3, Schema: rel.Schema{"z", "x"}},
			LeftCols: []string{"z", "x"}, RightCols: []string{"z", "x"},
		},
	}
	b.ReportAllocs()
	var tuples, built int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, report, err := c.Run(context.Background(), plan)
		if err != nil {
			b.Fatal(err)
		}
		tuples += report.TotalTuplesShuffled()
		built += sum(report.HashBuilt)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tuples), "ns/tuple")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(tuples), "B/tuple")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(tuples), "allocs/tuple")
	b.ReportMetric(float64(built)/float64(b.N), "built-rows/op")
}

// BenchmarkTriangle is the tracing-overhead sentinel: the HyperCube +
// Tributary triangle with tracing disabled (the default). The span shim is
// only installed when a tracer is set, so allocs/op here must not move when
// the trace plumbing changes.
func BenchmarkTriangle(b *testing.B) {
	q := triangleQuery()
	c := NewCluster(8)
	defer c.Close()
	c.Load(randGraph("R", 5000, 500, 214))
	c.Load(randGraph("S", 5000, 500, 215))
	c.Load(randGraph("T", 5000, 500, 216))
	cfg := shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{2, 2, 2}}
	plan := hcTrianglePlan(q, cfg, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Run(context.Background(), plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPShuffle shuffles across two processes' worth of workers, so
// half of every batch crosses a loopback socket.
func BenchmarkTCPShuffle(b *testing.B) {
	x, y := twoProcessCluster(b)
	r := randGraph("R", 20000, 2000, 213)
	x.Load(r)
	y.Load(r)
	plan := shuffleGather("R", []string{"dst"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSplit(b, x, y, plan)
	}
}
