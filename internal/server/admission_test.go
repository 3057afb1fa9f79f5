package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// block admits a query and returns a func that finishes it.
func block(t *testing.T, g *gate) func() {
	t.Helper()
	release, _, err := g.acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	return release
}

func TestGateQueueFullRejection(t *testing.T) {
	g := newGate(1, time.Minute)
	done := block(t, g) // occupies the only slot
	defer done()

	// Fill the queue: 4 waiters per slot.
	var wg sync.WaitGroup
	releases := make(chan func(), queuePerSlot)
	for i := 0; i < queuePerSlot; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, _, err := g.acquire(context.Background())
			if err != nil {
				t.Errorf("queued acquire: %v", err)
				return
			}
			releases <- r
		}()
	}
	waitFor(t, func() bool { return g.stats().Queued == queuePerSlot })

	// The next arrival must bounce immediately.
	start := time.Now()
	_, _, err := g.acquire(context.Background())
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-queue acquire: err = %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("queue-full rejection took %v, want immediate", d)
	}

	done() // free the slot; the waiters drain FIFO
	for i := 0; i < queuePerSlot; i++ {
		(<-releases)()
	}
	wg.Wait()

	st := g.stats()
	if st.RejectedQueueFull != 1 {
		t.Fatalf("RejectedQueueFull = %d, want 1", st.RejectedQueueFull)
	}
	if st.Admitted != queuePerSlot+1 || st.Completed != queuePerSlot+1 {
		t.Fatalf("admitted/completed = %d/%d, want %d/%d", st.Admitted, st.Completed, queuePerSlot+1, queuePerSlot+1)
	}
}

func TestGateWaitDeadlineRejection(t *testing.T) {
	g := newGate(1, 30*time.Millisecond)
	done := block(t, g)
	defer done()

	_, waited, err := g.acquire(context.Background())
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if waited < 30*time.Millisecond {
		t.Fatalf("waited %v, want >= the 30ms deadline", waited)
	}
	if g.stats().RejectedQueueWait != 1 {
		t.Fatalf("RejectedQueueWait = %d, want 1", g.stats().RejectedQueueWait)
	}
}

func TestGateCancelWhileQueued(t *testing.T) {
	g := newGate(1, time.Minute)
	done := block(t, g)
	defer done()

	cause := errors.New("client gave up")
	ctx, cancel := context.WithCancelCause(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := g.acquire(ctx)
		errc <- err
	}()
	waitFor(t, func() bool { return g.stats().Queued == 1 })
	cancel(cause)
	if err := <-errc; !errors.Is(err, cause) {
		t.Fatalf("canceled acquire: err = %v, want the cancel cause", err)
	}
	if g.stats().CanceledInQueue != 1 {
		t.Fatalf("CanceledInQueue = %d, want 1", g.stats().CanceledInQueue)
	}
	// The canceled waiter must not have leaked gate state: the slot frees and
	// admits normally.
	done()
	block(t, g)()
}

func TestGateDrain(t *testing.T) {
	g := newGate(1, time.Minute)
	done := block(t, g)

	// A waiter already queued when drain begins keeps its place.
	queuedDone := make(chan struct{})
	go func() {
		r, _, err := g.acquire(context.Background())
		if err != nil {
			t.Errorf("queued-before-drain acquire: %v", err)
		} else {
			r()
		}
		close(queuedDone)
	}()
	waitFor(t, func() bool { return g.stats().Queued == 1 })

	drained := make(chan error, 1)
	go func() { drained <- g.drain(context.Background()) }()
	waitFor(t, func() bool { return g.stats().Draining })

	// New arrivals bounce with ErrDraining.
	if _, _, err := g.acquire(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("acquire during drain: err = %v, want ErrDraining", err)
	}

	select {
	case err := <-drained:
		t.Fatalf("drain returned %v while a query was still running", err)
	case <-time.After(20 * time.Millisecond):
	}

	done() // finish the running query; the queued one runs and finishes too
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	<-queuedDone

	// Drain is idempotent and a bounded drain reports leftovers.
	if err := g.drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

func TestGateDrainTimeout(t *testing.T) {
	g := newGate(1, time.Minute)
	done := block(t, g)
	defer done()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := g.drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded drain: err = %v, want DeadlineExceeded", err)
	}
}

func TestGateFIFO(t *testing.T) {
	g := newGate(1, time.Minute)
	done := block(t, g)

	// Queue waiters one at a time so arrival order is deterministic, then
	// check they are admitted in that order.
	const n = queuePerSlot
	order := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, _, err := g.acquire(context.Background())
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			r()
		}()
		waitFor(t, func() bool { return g.stats().Queued == int64(i+1) })
	}
	done()
	wg.Wait()
	close(order)
	prev := -1
	for got := range order {
		if got != prev+1 {
			t.Fatalf("admission order: got %d after %d, want FIFO", got, prev)
		}
		prev = got
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
