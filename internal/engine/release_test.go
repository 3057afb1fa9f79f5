package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parajoin/internal/rel"
)

// faultyAfter passes a fixed number of sends through and then fails every
// later one with a transport-flavored error, so a run dies mid-shuffle with
// data already sitting in receiver queues. Every other method reaches the
// embedded transport, epoch release and Close included.
type faultyAfter struct {
	Transport
	calls atomic.Int64
	after int64 // 0 = never fail
}

func (f *faultyAfter) Send(ctx context.Context, exchangeID, src, dst int, batch []rel.Tuple) error {
	if f.after > 0 && f.calls.Add(1) > f.after {
		return fmt.Errorf("%w: injected link failure", ErrTransport)
	}
	return f.Transport.Send(ctx, exchangeID, src, dst, batch)
}

// testReleaseEpoch runs the success / mid-run error / client cancel
// trifecta and asserts the inbox queue count of every transport returns to
// zero each time: every run, however it ends, must release its epoch. mk
// builds the cluster's processes — one cluster per transport, all running
// the same plan. The first one's sends fail in the error case, and any
// failed process cancels the others, as the fragment dispatcher does.
func testReleaseEpoch(t *testing.T, mk func(t *testing.T) []*Cluster) {
	run := func(t *testing.T, after int64, cancelMidRun bool) ([]*TCPTransport, []*Report, error) {
		t.Helper()
		cs := mk(t)
		inners := make([]*TCPTransport, len(cs))
		for i, c := range cs {
			inners[i] = c.Transport().(*TCPTransport)
			c.Load(randGraph("R", 900, 80, 303))
		}
		cs[0].WrapTransport(func(tr Transport) Transport { return &faultyAfter{Transport: tr, after: after} })
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if cancelMidRun {
			go func() {
				time.Sleep(time.Millisecond)
				cancel()
			}()
		}
		reps := make([]*Report, len(cs))
		errs := make([]error, len(cs))
		var wg sync.WaitGroup
		for i, c := range cs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, reps[i], errs[i] = c.RunFragments(ctx, shuffleGather("R", []string{"dst"}))
				if errs[i] != nil {
					cancel()
				}
			}()
		}
		wg.Wait()
		return inners, reps, errors.Join(errs...)
	}
	assertDrained := func(t *testing.T, inners []*TCPTransport) {
		t.Helper()
		for i, tr := range inners {
			if n := tr.QueueCount(); n != 0 {
				t.Fatalf("transport %d: %d inbox queues survived the run's epoch release", i, n)
			}
		}
	}

	t.Run("success", func(t *testing.T) {
		inners, reps, err := run(t, 0, false)
		if err != nil {
			t.Fatalf("clean run failed: %v", err)
		}
		if len(reps) > 1 {
			for i, r := range reps {
				if r.BytesSent == 0 {
					t.Fatalf("process %d sent no bytes over the wire", i)
				}
			}
		}
		assertDrained(t, inners)
	})
	t.Run("error", func(t *testing.T) {
		inners, _, err := run(t, 2, false)
		if err == nil {
			t.Fatal("run survived a failing transport")
		}
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("error %v does not wrap ErrTransport", err)
		}
		assertDrained(t, inners)
	})
	t.Run("cancel", func(t *testing.T) {
		inners, _, err := run(t, 0, true)
		// The cancel races run completion; either outcome must drain.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled run returned %v, want nil or context.Canceled", err)
		}
		assertDrained(t, inners)
	})
}

// TestReleaseEpochMemTransport covers the single-process cluster, whose
// transport hosts every worker and delivers in memory.
func TestReleaseEpochMemTransport(t *testing.T) {
	testReleaseEpoch(t, func(t *testing.T) []*Cluster {
		c := NewCluster(3)
		t.Cleanup(func() { c.Close() })
		return []*Cluster{c}
	})
}

// TestReleaseEpochTCPTransport covers a cluster split across two
// transports, where frames cross real sockets and a failed or canceled
// half releases its epoch while the other may still be sending to it.
func TestReleaseEpochTCPTransport(t *testing.T) {
	testReleaseEpoch(t, func(t *testing.T) []*Cluster {
		a, b := twoProcessCluster(t)
		return []*Cluster{a, b}
	})
}
