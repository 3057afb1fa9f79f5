package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"parajoin/internal/core"
	"parajoin/internal/rel"
)

// TestLoadDuringRun is the Load-vs-Run race regression test: storage maps
// are mutated by Load while concurrent runs read them through Fragment.
// Run it under -race.
func TestLoadDuringRun(t *testing.T) {
	c := NewCluster(4)
	defer c.Close()
	c.Load(randGraph("R", 2000, 300, 1))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Load(randGraph("R", 500, 300, i))
			c.Load(randGraph("Other", 500, 300, i))
		}
	}()

	for i := 0; i < 20; i++ {
		out, _, err := c.Run(context.Background(), shuffleGather("R", []string{"dst"}))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		// The bag observed is some complete load of R: fragments resolve
		// per scan at open time, so cardinality is one relation's worth.
		if n := out.Cardinality(); n == 0 {
			t.Fatalf("run %d returned an empty bag", i)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCloseIdempotent checks double Close and the typed ErrClosed on
// subsequent runs.
func TestCloseIdempotent(t *testing.T) {
	c := NewCluster(2)
	c.Load(randGraph("R", 100, 50, 1))
	if err := c.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	_, _, err := c.Run(context.Background(), shuffleGather("R", []string{"dst"}))
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("run after close: err = %v, want ErrClosed", err)
	}
}

// stallTransport wraps a Transport and parks every Recv until the context
// dies — a deterministic way to have a run in flight when Close arrives.
type stallTransport struct {
	Transport
}

func (t *stallTransport) Recv(ctx context.Context, exchangeID, dst int) (rel.Batch, bool, error) {
	<-ctx.Done()
	return rel.Batch{}, false, ctx.Err()
}

func TestCloseDuringRun(t *testing.T) {
	c := NewCluster(2)
	c.WrapTransport(func(t Transport) Transport { return &stallTransport{Transport: t} })
	c.Load(randGraph("R", 100, 50, 1))

	errCh := make(chan error, 1)
	go func() {
		_, _, err := c.Run(context.Background(), shuffleGather("R", []string{"dst"}))
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the run block in Recv
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("in-flight run: err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after Close")
	}
}

// storeThenScan builds a two-round plan: round 1 filters R by parity and
// stores the result under tmpName; round 2 scans it back. Concurrent runs
// with the same temp name must not observe each other's intermediates.
func storeThenScan(tmpName string, parity int64) []Round {
	return []Round{
		{
			Name: "store",
			Plan: &Plan{Root: Select{
				Input:   Scan{Table: "Mod"},
				Filters: []ColFilter{{Left: "parity", Op: core.Eq, Const: parity}},
			}},
			StoreAs: tmpName,
		},
		{
			Name: "scan",
			Plan: &Plan{Root: Scan{Table: tmpName}},
		},
	}
}

func TestConcurrentMultiRoundRunsKeepPrivateTemps(t *testing.T) {
	c := NewCluster(4)
	defer c.Close()
	r := rel.New("Mod", "v", "parity")
	for i := int64(0); i < 1000; i++ {
		r.AppendRow(i, i%2)
	}
	c.Load(r)

	const runs = 8
	var wg sync.WaitGroup
	errs := make([]error, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parity := int64(i % 2)
			out, _, err := c.RunRounds(context.Background(), storeThenScan("tmp", parity))
			if err != nil {
				errs[i] = err
				return
			}
			if out.Cardinality() != 500 {
				errs[i] = fmt.Errorf("run %d: got %d rows, want 500", i, out.Cardinality())
				return
			}
			for _, tu := range out.Tuples {
				if tu[1] != parity {
					errs[i] = fmt.Errorf("run %d: saw parity %d, want %d (temp leak)", i, tu[1], parity)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Temps are run-private: nothing may have leaked into shared storage.
	if c.Fragment(0, "tmp") != nil {
		t.Fatal("temp relation leaked into cluster storage")
	}
}

// TestReleaseEpoch checks that finished runs free their transport queues —
// the per-query leak a long-running server would otherwise accumulate.
func TestReleaseEpoch(t *testing.T) {
	c := NewCluster(4)
	defer c.Close()
	c.Load(randGraph("R", 1000, 200, 1))

	for i := 0; i < 5; i++ {
		if _, _, err := c.Run(context.Background(), shuffleGather("R", []string{"dst"})); err != nil {
			t.Fatal(err)
		}
	}
	if left := c.Transport().(*TCPTransport).QueueCount(); left != 0 {
		t.Fatalf("%d inbox queues left on the transport after runs completed", left)
	}
}
