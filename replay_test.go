package parajoin

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The result-cache replay study: one fixed sequence of prepared-statement
// executions with Zipf-distributed arguments, run once with no cache and
// once with the result cache over identical data. It measures what the
// cache buys on the skewed, repetitive workload it is built for.

// replayShapes are the prepared rules the replay cycles through, all
// multi-atom joins. Three take a parameter, so a repeat hits only when the
// Zipf draw repeats its argument; the bare triangle takes none, so every
// repeat is an identical query, the result cache's best case.
var replayShapes = []string{
	"R1(v,w,x,y,z) :- E(v,w), E(w,x), E(x,y), E(y,z), E(z,v), E(v,?)",
	"R2(v,w,x,y,z) :- E(v,w), E(w,x), E(x,y), E(y,z), E(z,v), E(w,?)",
	"R3(v,z) :- E(v,w), E(w,x), E(x,y), E(y,z), E(?,v)",
	"R4(x,y,z) :- E(x,y), E(y,z), E(z,x)",
}

// replay sizes one replay: Queries executions on a Workers-worker DB over
// a synthetic graph of Edges edges among Nodes nodes, with arguments drawn
// from Zipf(s = Zipf) over the node ids.
type replay struct {
	Zipf    float64
	Queries int
	Workers int
	Edges   int
	Nodes   int
}

// replayArm is one cache configuration's run: its latencies, sorted, and
// the cache counters after the last execution.
type replayArm struct {
	lat   []time.Duration
	cache CacheStats
}

func (a replayArm) p50() time.Duration { return a.lat[len(a.lat)/2] }

// run executes the replay on a fresh DB opened with opts. Every call draws
// the same sequence: the shape cycles round-robin and the argument is a
// Zipf draw (argument 0 is the heavy hitter).
func (r replay) run(tb testing.TB, opts ...Option) replayArm {
	tb.Helper()
	db := Open(r.Workers, opts...)
	defer db.Close()
	if err := db.LoadEdges("E", SyntheticGraph(r.Edges, r.Nodes, 5)); err != nil {
		tb.Fatal(err)
	}
	stmts := make([]*Prepared, len(replayShapes))
	for i, rule := range replayShapes {
		p, err := db.Prepare(rule)
		if err != nil {
			tb.Fatalf("prepare %q: %v", rule, err)
		}
		stmts[i] = p
	}

	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), r.Zipf, 1, uint64(r.Nodes-1))
	arm := replayArm{lat: make([]time.Duration, 0, r.Queries)}
	for i := range r.Queries {
		stmt := stmts[i%len(stmts)]
		args := []int64{int64(zipf.Uint64())}
		if stmt.NumParams() == 0 {
			args = nil
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		start := time.Now()
		_, err := stmt.Execute(ctx, args...)
		cancel()
		if err != nil {
			tb.Fatalf("execute %q(%v): %v", replayShapes[i%len(stmts)], args, err)
		}
		arm.lat = append(arm.lat, time.Since(start))
	}
	slices.Sort(arm.lat)
	arm.cache = db.CacheStats()
	return arm
}

// TestResultCacheReplayCounters runs the replay at smoke size and checks
// the arms' cache counters: the no-cache arm moves none, and every
// execution on the cached arm is exactly one hit or one miss.
func TestResultCacheReplayCounters(t *testing.T) {
	r := replay{Zipf: 1.1, Queries: 40, Workers: 4, Edges: 2000, Nodes: 300}
	if cold := r.run(t); cold.cache != (CacheStats{}) {
		t.Errorf("no-cache arm moved cache counters: %+v", cold.cache)
	}
	warm := r.run(t, WithResultCache(1<<22))
	if c := warm.cache.Result; c.Hits+c.Misses != int64(r.Queries) {
		t.Errorf("result-cache arm: %d hits + %d misses, want %d executions", c.Hits, c.Misses, r.Queries)
	}
	if warm.cache.Result.Hits == 0 {
		t.Error("result-cache arm never hit on a Zipf replay")
	}
}

// BenchmarkReplay_ResultCache reports what the result cache buys on the
// replay: cold p50 over cached p50, and the cached arm's hit rate.
func BenchmarkReplay_ResultCache(b *testing.B) {
	r := replay{Zipf: 1.1, Queries: 400, Workers: 4, Edges: 20000, Nodes: 1200}
	if fastBench() {
		r.Queries, r.Edges, r.Nodes = 120, 6000, 500
	}
	var cold, warm replayArm
	for i := 0; i < b.N; i++ {
		cold = r.run(b)
		warm = r.run(b, WithResultCache(1<<22))
	}
	c := warm.cache.Result
	b.ReportMetric(float64(cold.p50())/float64(warm.p50()), "p50Speedup")
	b.ReportMetric(float64(c.Hits)/float64(c.Hits+c.Misses), "resultHitRate")
}
