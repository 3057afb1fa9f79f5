// Replay benchmark (-replay-zipf): measures what the result cache buys on
// a skewed, repetitive workload — the regime it is built for. A fixed
// sequence of prepared-statement executions with Zipf-distributed
// arguments runs twice over identical data: with no cache and with the
// result cache. The report is the per-arm latency percentiles, the hit
// rate, and the cold/warm p50 speedup.
package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"parajoin"
)

// replayShapes are the prepared rules the replay cycles through — all
// multi-atom joins. Three are parameterized, so a repeat hits only when the
// Zipf draw repeats its argument; the bare triangle takes no parameters,
// so every repeat is an identical query — the result cache's best case.
var replayShapes = []string{
	"R1(v,w,x,y,z) :- E(v,w), E(w,x), E(x,y), E(y,z), E(z,v), E(v,?)",
	"R2(v,w,x,y,z) :- E(v,w), E(w,x), E(x,y), E(y,z), E(z,v), E(w,?)",
	"R3(v,z) :- E(v,w), E(w,x), E(x,y), E(y,z), E(?,v)",
	"R4(x,y,z) :- E(x,y), E(y,z), E(z,x)",
}

type replayConfig struct {
	Zipf    float64 // exponent s > 1
	Queries int
	Workers int
	Edges   int
	Nodes   int
	Timeout time.Duration
}

// ReplayArm is one cache configuration's measured replay.
type ReplayArm struct {
	Name          string
	P50, P95, P99 time.Duration
	ResultHits    int64
	ResultMisses  int64
}

func (a ReplayArm) resultHitRate() float64 {
	if a.ResultHits+a.ResultMisses == 0 {
		return 0
	}
	return float64(a.ResultHits) / float64(a.ResultHits+a.ResultMisses)
}

// ReplayReport is the -replay-zipf output: the two arms plus the cold/warm
// p50 ratio (the headline number).
type ReplayReport struct {
	Zipf    float64
	Queries int
	Shapes  int
	Arms    []ReplayArm
	// P50Speedup is cold p50 / result-cache p50.
	P50Speedup float64
}

func runReplay(cfg replayConfig) (*ReplayReport, error) {
	if cfg.Zipf <= 1 {
		return nil, fmt.Errorf("-replay-zipf wants an exponent > 1 (got %g)", cfg.Zipf)
	}
	graph := parajoin.SyntheticGraph(cfg.Edges, cfg.Nodes, 5)

	// One deterministic workload, replayed identically by every arm: the
	// shape cycles round-robin, the argument is a Zipf draw over the node
	// universe (argument 0 is the heavy hitter).
	type call struct {
		shape int
		arg   int64
	}
	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, cfg.Zipf, 1, uint64(cfg.Nodes-1))
	workload := make([]call, cfg.Queries)
	for i := range workload {
		workload[i] = call{shape: i % len(replayShapes), arg: int64(zipf.Uint64())}
	}

	arms := []struct {
		name string
		opts []parajoin.Option
	}{
		{"cold", nil},
		{"result", []parajoin.Option{parajoin.WithResultCache(1 << 22)}},
	}

	rep := &ReplayReport{Zipf: cfg.Zipf, Queries: cfg.Queries, Shapes: len(replayShapes)}
	for _, arm := range arms {
		opts := append([]parajoin.Option{parajoin.WithSeed(7)}, arm.opts...)
		db := parajoin.Open(cfg.Workers, opts...)
		if err := db.LoadEdges("E", graph); err != nil {
			db.Close()
			return nil, err
		}
		stmts := make([]*parajoin.Prepared, len(replayShapes))
		for i, rule := range replayShapes {
			p, err := db.Prepare(rule)
			if err != nil {
				db.Close()
				return nil, fmt.Errorf("prepare %q: %v", rule, err)
			}
			stmts[i] = p
		}

		lat := make([]time.Duration, 0, len(workload))
		for _, c := range workload {
			ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
			args := []int64{c.arg}
			if stmts[c.shape].NumParams() == 0 {
				args = nil
			}
			start := time.Now()
			_, err := stmts[c.shape].Execute(ctx, args...)
			cancel()
			if err != nil {
				db.Close()
				return nil, fmt.Errorf("%s: execute %q(%v): %v", arm.name, replayShapes[c.shape], args, err)
			}
			lat = append(lat, time.Since(start))
		}

		cs := db.CacheStats()
		db.Close()
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		pct := func(q float64) time.Duration { return lat[int(q*float64(len(lat)-1))] }
		rep.Arms = append(rep.Arms, ReplayArm{
			Name: arm.name,
			P50:  pct(0.50), P95: pct(0.95), P99: pct(0.99),
			ResultHits: cs.Result.Hits, ResultMisses: cs.Result.Misses,
		})
	}

	if p := rep.Arms[1].P50; p > 0 {
		rep.P50Speedup = float64(rep.Arms[0].P50) / float64(p)
	}
	return rep, nil
}

// Render prints the replay table in the benchrunner house style.
func (rep *ReplayReport) Render(w io.Writer) {
	fmt.Fprintf(w, "Replay: %d queries over %d shapes, Zipf(s=%.2f) arguments\n",
		rep.Queries, rep.Shapes, rep.Zipf)
	fmt.Fprintf(w, "%-12s %12s %12s %12s %12s\n",
		"arm", "p50", "p95", "p99", "result-hit")
	for _, a := range rep.Arms {
		fmt.Fprintf(w, "%-12s %12v %12v %12v %11.0f%%\n",
			a.Name, a.P50.Round(time.Microsecond), a.P95.Round(time.Microsecond),
			a.P99.Round(time.Microsecond), 100*a.resultHitRate())
	}
	fmt.Fprintf(w, "p50 speedup: %.1fx with the result cache\n", rep.P50Speedup)
}
