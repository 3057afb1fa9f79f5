package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between the two closest ranks — the definition Python's statistics.median
// and numpy's default percentile use, so numbers printed here can be
// recomputed from the raw samples with either. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opSample is one executed operation of a pass. err covers every way an op
// can fail: transport error, timeout, typed rejection, wrong answer, or a
// violated workload-intent assertion.
type opSample struct {
	op        int // index into the workload's pass
	latency   time.Duration
	queueWait time.Duration // as the server reports it in the answer's stats
	err       error
}

// passSample is one replay of the workload's op list. wall runs from the
// first send to the last decoded answer, as the client sees it.
type passSample struct {
	wall time.Duration
	ops  []opSample
}

// passSummary aggregates timed passes into the client-side end-to-end
// figures. The pass — not the op — is the latency sample, so a mix of cheap
// and costly queries cannot make the median jump between query classes.
type passSummary struct {
	Passes       int
	PassP50Ms    float64
	PassP90Ms    float64 // diagnostic only: gated on nothing
	Throughput   float64 // correct ops per second of timed pass wall
	Attempted    int
	Failed       int
	OpP50Ms      []float64 // per op of the pass, over its correct runs
	FirstFailure error
}

func summarizePasses(passes []passSample, opsPerPass int) passSummary {
	s := passSummary{Passes: len(passes), OpP50Ms: make([]float64, opsPerPass)}
	var (
		walls []float64
		total time.Duration
		perOp = make([][]float64, opsPerPass)
	)
	for _, p := range passes {
		walls = append(walls, ms(p.wall))
		total += p.wall
		for _, o := range p.ops {
			s.Attempted++
			if o.err != nil {
				s.Failed++
				if s.FirstFailure == nil {
					s.FirstFailure = o.err
				}
				continue
			}
			perOp[o.op] = append(perOp[o.op], ms(o.latency))
		}
	}
	s.PassP50Ms = median(walls)
	s.PassP90Ms = quantile(walls, 0.9)
	if total > 0 {
		s.Throughput = float64(s.Attempted-s.Failed) / total.Seconds()
	}
	for i, xs := range perOp {
		s.OpP50Ms[i] = median(xs)
	}
	return s
}
