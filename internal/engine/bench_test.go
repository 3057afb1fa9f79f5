package engine

import (
	"context"
	"testing"

	"parajoin/internal/core"
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
