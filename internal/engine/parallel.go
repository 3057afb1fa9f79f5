package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parajoin/internal/ljoin"
	"parajoin/internal/rel"
	"parajoin/internal/spill"
	"parajoin/internal/trace"
)

// The Tributary join's one execution path. With parallelism K>1 the
// prepared join is split into contiguous sub-ranges of the first join
// attribute's domain (see ljoin.Shards) and the sub-ranges run on a pool of
// up to K goroutines; with K≤1, or when the split declines, the whole join
// is one shard run inline. Because level-0 values enumerate in increasing
// order and the ranges are disjoint and ordered, concatenating the
// sub-range outputs in range order reproduces the one-shard row sequence
// exactly — the determinism the retry-based fault tolerance of DESIGN.md's
// "Fault tolerance" section depends on.

// shards asks for ~2K sub-ranges (oversampling lets the pool balance ranges
// of uneven cost) and falls back to the whole join as one shard when K≤1 or
// the split declines: a degenerate join, or a domain too small to cut.
func (o *tributaryOp) shards(p *ljoin.Prepared) []*ljoin.Prepared {
	if k := o.t.ex.parallelism; k > 1 {
		if s := p.Shards(2 * k); s != nil {
			return s
		}
	}
	return []*ljoin.Prepared{p}
}

// runPool executes task(0..n-1) on min(parallelism, n) goroutines. Tasks
// are claimed dynamically from a shared counter, so a goroutine stuck on
// one expensive sub-range does not idle the rest. The first task error
// (in task-index order, matching what a serial loop would have hit first)
// wins; a goroutine stops claiming as soon as any task failed, the run
// context is canceled, or the worker's memory budget is blown. Each
// task's range-order index, row count, and wall time are traced as a
// KindJoin span, and the pool's task counts feed the JoinTasks and
// JoinStealMax report counters. A single task — the unsplit join — runs
// inline, with no span and no task accounting: those record a split.
func (o *tributaryOp) runPool(n int, task func(i int) (int64, error)) error {
	if n == 1 {
		_, err := task(0)
		return err
	}
	e := o.t.ex
	workers := min(e.parallelism, n)
	var next atomic.Int64
	var bail atomic.Bool
	errs := make([]error, n)
	taken := make([]int64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				if bail.Load() || e.ctx.Err() != nil || e.memErr(o.t.worker) != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				taken[g]++
				start := time.Now()
				tuples, err := task(i)
				if e.tracer.Enabled() {
					e.tracer.Emit(trace.Event{
						Kind: trace.KindJoin, Run: e.epoch, Worker: o.t.worker,
						Exchange: o.t.exchange, Op: i,
						Name:   fmt.Sprintf("subjoin %d/%d", i+1, n),
						Tuples: tuples, Dur: time.Since(start),
					})
				}
				if err != nil {
					errs[i] = err
					bail.Store(true)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	var sum, steal int64
	for _, t := range taken {
		sum += t
		if t > steal {
			steal = t
		}
	}
	e.metrics.addJoinTasks(sum)
	e.metrics.noteJoinSteal(steal)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// join runs the shards: each materializes through its own spillable FIFO
// buffer (buffers are single-goroutine; the accountant and segment factory
// they share are lock-free/atomic), and the finished per-shard streams are
// chained in range order. A lone shard's buffer is labelled "tributary",
// a split one's "tributary[i]".
func (o *tributaryOp) join(shards []*ljoin.Prepared) (spill.Stream, error) {
	e := o.t.ex
	bufs := make([]*spill.Buffer, len(shards))
	poolErr := o.runPool(len(shards), func(i int) (int64, error) {
		label := "tributary"
		if len(shards) > 1 {
			label = fmt.Sprintf("tributary[%d]", i)
		}
		buf := spill.NewBuffer(e.spillConfig(o.t.worker, len(o.sch), label))
		bufs[i] = buf
		var addErr error
		runErr := shards[i].Run(func(t rel.Tuple) bool {
			addErr = buf.Add(t.Clone())
			return addErr == nil
		})
		if runErr != nil {
			return buf.Len(), runErr
		}
		if addErr != nil {
			return buf.Len(), e.spillErr(o.t.worker, addErr)
		}
		return buf.Len(), nil
	})
	if poolErr != nil {
		return nil, poolErr
	}
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	if err := e.memErr(o.t.worker); err != nil {
		return nil, err
	}
	streams := make([]spill.Stream, 0, len(bufs))
	for _, buf := range bufs {
		s, err := buf.Finish()
		if err != nil {
			for _, open := range streams {
				open.Close()
			}
			return nil, err
		}
		streams = append(streams, s)
	}
	return spill.Concat(streams...), nil
}

// shardSeeks sums the shards' trie seeks. A split join's parent Prepared
// never ran, so its own counters stay zero and the shard sum is the whole
// join's seek count.
func shardSeeks(shards []*ljoin.Prepared) int64 {
	var n int64
	for _, s := range shards {
		n += s.Stats().Seeks
	}
	return n
}
