// Admission control: a bounded concurrency gate with a FIFO wait queue,
// queue-depth and wait-deadline limits, and drain support.
//
// The state machine for one query:
//
//	arrive ──(draining?)──────────────────────────▶ rejected: ErrDraining
//	   │
//	   ├─(slot free)──────────────────────────────▶ RUNNING
//	   │
//	   ├─(queue full: waiters ≥ 4×MaxConcurrent)──▶ rejected: ErrOverloaded
//	   │
//	   ▼
//	QUEUED ──(slot freed, FIFO)───────────────────▶ RUNNING
//	   ├─(waited > MaxQueueWait)──────────────────▶ rejected: ErrOverloaded
//	   └─(caller's context canceled/expired)──────▶ canceled
//
//	RUNNING ──(release)──▶ done; the freed slot admits the oldest waiter
//
// Rejections are immediate and typed (backpressure instead of collapse):
// a client seeing ErrOverloaded knows the server is healthy but saturated
// and can back off, while queue-depth and wait-deadline limits bound both
// the memory the queue pins and the worst-case latency of an admitted
// query.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrOverloaded is the typed backpressure error: the admission queue was
// full, or the queue-wait deadline passed before a slot freed up.
var ErrOverloaded = errors.New("server: overloaded")

// ErrDraining is returned to queries arriving after shutdown began.
var ErrDraining = errors.New("server: draining, not admitting new queries")

// queuePerSlot is how many queries may wait per concurrency slot.
const queuePerSlot = 4

// gate is the admission controller: at most maxConcurrent holders at once,
// at most queuePerSlot×maxConcurrent goroutines waiting, each waiting at
// most maxWait.
type gate struct {
	slots   chan struct{} // capacity maxConcurrent, holds free slots
	maxWait time.Duration

	mu       sync.Mutex
	draining bool
	active   sync.WaitGroup // queued + running queries, for drain

	queued   atomic.Int64
	inflight atomic.Int64

	admitted       atomic.Int64
	completed      atomic.Int64
	rejectedFull   atomic.Int64
	rejectedWait   atomic.Int64
	canceledQueued atomic.Int64
}

func newGate(maxConcurrent int, maxWait time.Duration) *gate {
	g := &gate{
		slots:   make(chan struct{}, maxConcurrent),
		maxWait: maxWait,
	}
	for i := 0; i < maxConcurrent; i++ {
		g.slots <- struct{}{}
	}
	return g
}

// acquire admits the caller or fails fast with a typed error. On success
// the returned release func must be called exactly once when the query
// finishes. waited reports time spent in the queue.
func (g *gate) acquire(ctx context.Context) (release func(), waited time.Duration, err error) {
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		return nil, 0, ErrDraining
	}
	// Registered under the lock so drain's WaitGroup.Wait can never race a
	// late Add: after drain flips the flag no new query registers.
	g.active.Add(1)
	g.mu.Unlock()

	// Fast path: a slot is free, skip the queue entirely.
	select {
	case <-g.slots:
		return g.admit(), 0, nil
	default:
	}

	// Queue, bounded in depth…
	if waiting := g.queued.Add(1); waiting > int64(queuePerSlot*cap(g.slots)) {
		g.queued.Add(-1)
		g.rejectedFull.Add(1)
		g.active.Done()
		return nil, 0, fmt.Errorf("%w: wait queue full (%d queued)", ErrOverloaded, waiting-1)
	}
	// …and in wait time. Waiters blocked on the slots channel are served in
	// arrival order (the runtime's channel wait queue is FIFO).
	start := time.Now()
	timer := time.NewTimer(g.maxWait)
	defer timer.Stop()
	select {
	case <-g.slots:
		g.queued.Add(-1)
		return g.admit(), time.Since(start), nil
	case <-timer.C:
		g.queued.Add(-1)
		g.rejectedWait.Add(1)
		g.active.Done()
		return nil, time.Since(start), fmt.Errorf("%w: no slot within %v", ErrOverloaded, g.maxWait)
	case <-ctx.Done():
		g.queued.Add(-1)
		g.canceledQueued.Add(1)
		g.active.Done()
		return nil, time.Since(start), context.Cause(ctx)
	}
}

func (g *gate) admit() func() {
	g.admitted.Add(1)
	g.inflight.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			g.inflight.Add(-1)
			g.completed.Add(1)
			g.slots <- struct{}{}
			g.active.Done()
		})
	}
}

// quiesce claims every concurrency slot, waiting for in-flight queries to
// release theirs, and returns a resume func that gives the slots back. While
// quiesced nothing executes, but unlike drain the gate keeps accepting:
// arrivals queue (bounded in depth and MaxQueueWait as usual) and run when
// resume is called. This is the pause a database swap needs — Rebuild uses
// it to replace the served DB between queries, never under one.
func (g *gate) quiesce(ctx context.Context) (resume func(), err error) {
	n := cap(g.slots)
	taken := 0
	giveBack := func() {
		for i := 0; i < taken; i++ {
			g.slots <- struct{}{}
		}
	}
	for taken < n {
		select {
		case <-g.slots:
			taken++
		case <-ctx.Done():
			giveBack()
			return nil, context.Cause(ctx)
		}
	}
	var once sync.Once
	return func() { once.Do(giveBack) }, nil
}

// drain stops admitting new queries (they fail with ErrDraining) and waits
// for every queued and running query to finish, or for ctx to expire.
// Queries already in the queue when drain begins keep their place and are
// allowed to run. Idempotent.
func (g *gate) drain(ctx context.Context) error {
	g.mu.Lock()
	g.draining = true
	g.mu.Unlock()

	done := make(chan struct{})
	go func() {
		g.active.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted with %d queries still active: %w",
			g.inflight.Load()+g.queued.Load(), context.Cause(ctx))
	}
}

// GateStats is a snapshot of the admission controller's counters.
type GateStats struct {
	// Gauges.
	InFlight int64
	Queued   int64
	Draining bool
	// Counters.
	Admitted          int64
	Completed         int64
	RejectedQueueFull int64
	RejectedQueueWait int64
	CanceledInQueue   int64
}

func (g *gate) stats() GateStats {
	g.mu.Lock()
	draining := g.draining
	g.mu.Unlock()
	return GateStats{
		InFlight:          g.inflight.Load(),
		Queued:            g.queued.Load(),
		Draining:          draining,
		Admitted:          g.admitted.Load(),
		Completed:         g.completed.Load(),
		RejectedQueueFull: g.rejectedFull.Load(),
		RejectedQueueWait: g.rejectedWait.Load(),
		CanceledInQueue:   g.canceledQueued.Load(),
	}
}
