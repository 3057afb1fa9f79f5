// Chaos soak tests: queries served under deterministic fault injection must
// produce bit-identical results to fault-free runs, healing through the
// server's automatic re-execution; terminal failures must never retry.
package server_test

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"parajoin"
	"parajoin/client"
	"parajoin/internal/fault"
	"parajoin/internal/server"
	"parajoin/internal/trace"
)

// testLn pairs a loopback listener with its resolved address.
type testLn struct {
	ln   net.Listener
	addr string
}

func net0(t *testing.T) (testLn, error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return testLn{}, err
	}
	return testLn{ln: ln, addr: ln.Addr().String()}, nil
}

const cliqueRule = "Q(x,y,z,w) :- E(x,y), E(x,z), E(x,w), E(y,z), E(y,w), E(z,w)"

// captureSink records trace events for assertions.
type captureSink struct {
	mu     sync.Mutex
	events []trace.Event
}

func (s *captureSink) Write(events []trace.Event) {
	s.mu.Lock()
	s.events = append(s.events, events...)
	s.mu.Unlock()
}

func (s *captureSink) find(kind trace.Kind) []trace.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []trace.Event
	for _, e := range s.events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// chaosServer starts a server whose DB runs under the given fault plan
// (nil for none), loaded with the standard test graph. Extra DB options
// (e.g. WithParallelism) are appended after the fault plan.
func chaosServer(t *testing.T, plan *fault.Plan, cfg server.Config, extra ...parajoin.Option) (*server.Server, string, *captureSink) {
	t.Helper()
	sink := &captureSink{}
	if cfg.Logf == nil {
		cfg.Logf = quiet
	}
	cfg.Tracer = trace.New(sink)
	var opts []parajoin.Option
	if plan != nil {
		opts = append(opts, parajoin.WithFaultPlan(plan))
	}
	opts = append(opts, extra...)
	db := parajoin.Open(4, opts...)
	if err := db.LoadEdges("E", parajoin.SyntheticGraph(1200, 200, 5)); err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, cfg)
	ln, err := net0(t)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln.ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		db.Close()
	})
	return srv, ln.addr, sink
}

// baseline evaluates a rule on a fault-free DB over the same graph.
func baseline(t *testing.T, rule, strategy string) []string {
	t.Helper()
	db := parajoin.Open(4)
	defer db.Close()
	if err := db.LoadEdges("E", parajoin.SyntheticGraph(1200, 200, 5)); err != nil {
		t.Fatal(err)
	}
	q, err := db.Query(rule)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.RunWith(context.Background(), parajoin.Strategy(strategy))
	if err != nil {
		t.Fatal(err)
	}
	return canon(res.Rows)
}

// TestChaosSoakBitIdentical is the tentpole soak: triangle and 4-clique
// queries under three seeded fault plans (drop, stall+recv-err, crash at
// the exchange barrier). Every run must heal through automatic
// re-execution — at least one retry observed via Stats.Attempts and the
// trace — and return exactly the fault-free rows.
func TestChaosSoakBitIdentical(t *testing.T) {
	// Each plan carries one nth=1 rule pinned to a single stream: it fires
	// deterministically on the first attempt and is spent on the retry, so
	// the second attempt completes. Stream call counters live in the
	// injector, which the DB keeps across re-executions.
	plans := []string{
		"seed=11;drop:exchange=0,worker=1,nth=1",
		"seed=22;stall:prob=0.05,delay=1ms;recv-err:exchange=0,worker=2,nth=1",
		"seed=33;crash:exchange=0,worker=0,nth=1",
	}
	queries := []struct {
		name, rule, strategy string
	}{
		{"triangle", triRule, "hc_tj"},
		{"4clique", cliqueRule, "hc_tj"},
	}
	for _, q := range queries {
		want := baseline(t, q.rule, q.strategy)
		if len(want) == 0 {
			t.Fatalf("%s baseline returned no rows — the soak would prove nothing", q.name)
		}
		for _, spec := range plans {
			plan, err := fault.ParsePlan(spec)
			if err != nil {
				t.Fatalf("ParsePlan(%q): %v", spec, err)
			}
			t.Run(q.name+"/"+plan.String(), func(t *testing.T) {
				_, addr, sink := chaosServer(t, plan, server.Config{})
				c := dial(t, addr)
				res, err := c.Run(context.Background(), q.rule, client.QueryOptions{Strategy: q.strategy})
				if err != nil {
					t.Fatalf("query under %q failed: %v", spec, err)
				}
				if got := canon(res.Rows); len(got) != len(want) {
					t.Fatalf("result diverged under faults: %d rows, want %d", len(got), len(want))
				} else {
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("row %d diverged under faults: %q vs %q", i, got[i], want[i])
						}
					}
				}
				if res.Stats.Attempts < 2 {
					t.Fatalf("Attempts = %d, want >= 2 (the plan's fault must have forced a re-execution)", res.Stats.Attempts)
				}
				if res.Stats.RetryCause == "" {
					t.Fatal("RetryCause empty on a retried query")
				}
				// The server records a query's outcome, and flushes its
				// trace, after the answer's last frame is written, so the
				// client can hold its rows before the events arrive.
				waitFor(t, "a KindQuery outcome event with Attempts >= 2", func() bool {
					for _, e := range sink.find(trace.KindQuery) {
						if e.Name == "ok" && e.Attempts >= 2 {
							return true
						}
					}
					return false
				})
				if len(sink.find(trace.KindRetry)) == 0 {
					t.Fatal("no KindRetry trace event emitted")
				}
			})
		}
	}
}

// TestChaosSoakParallel re-runs the healing soak with intra-worker
// parallel joins forced on (K=3): the re-executed query must still
// reproduce the serial fault-free rows byte-for-byte — the determinism
// contract the parallel join's range-ordered concatenation guarantees —
// while the shard pool runs under whatever goroutine interleaving the
// race detector provokes.
func TestChaosSoakParallel(t *testing.T) {
	plans := []string{
		"seed=11;drop:exchange=0,worker=1,nth=1",
		"seed=33;crash:exchange=0,worker=0,nth=1",
	}
	queries := []struct {
		name, rule, strategy string
	}{
		{"triangle", triRule, "hc_tj"},
		{"4clique", cliqueRule, "hc_tj"},
	}
	for _, q := range queries {
		want := baseline(t, q.rule, q.strategy)
		if len(want) == 0 {
			t.Fatalf("%s baseline returned no rows — the soak would prove nothing", q.name)
		}
		for _, spec := range plans {
			plan, err := fault.ParsePlan(spec)
			if err != nil {
				t.Fatalf("ParsePlan(%q): %v", spec, err)
			}
			t.Run(q.name+"/"+plan.String(), func(t *testing.T) {
				_, addr, _ := chaosServer(t, plan, server.Config{}, parajoin.WithParallelism(3))
				c := dial(t, addr)
				res, err := c.Run(context.Background(), q.rule, client.QueryOptions{Strategy: q.strategy})
				if err != nil {
					t.Fatalf("parallel query under %q failed: %v", spec, err)
				}
				got := canon(res.Rows)
				if len(got) != len(want) {
					t.Fatalf("parallel result diverged under faults: %d rows, want %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("row %d diverged under faults+parallelism: %q vs %q", i, got[i], want[i])
					}
				}
				if res.Stats.Attempts < 2 {
					t.Fatalf("Attempts = %d, want >= 2", res.Stats.Attempts)
				}
			})
		}
	}
}

// TestChaosRetriesExhausted drives a plan that fails every attempt: the
// server must stop at its retry budget and return the typed exhaustion
// error, having admitted exactly budget+1 attempts through the gate.
func TestChaosRetriesExhausted(t *testing.T) {
	plan, err := fault.ParsePlan("seed=44;drop:exchange=0,prob=1")
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, _ := chaosServer(t, plan, server.Config{RetryBudget: 2})
	c := dial(t, addr)
	_, err = c.Run(context.Background(), triRule, client.QueryOptions{Strategy: "hc_tj"})
	if !errors.Is(err, client.ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if got := srv.Stats().Gate.Admitted; got != 3 {
		t.Fatalf("gate admitted %d attempts, want 3 (budget 2 + first attempt)", got)
	}
}

// TestChaosRetryDisabled pins RetryBudget < 0: the transport failure
// surfaces raw after exactly one admission, no retries, no exhaustion
// wrapper.
func TestChaosRetryDisabled(t *testing.T) {
	plan, err := fault.ParsePlan("seed=44;drop:exchange=0,prob=1")
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, sink := chaosServer(t, plan, server.Config{RetryBudget: -1})
	c := dial(t, addr)
	_, err = c.Run(context.Background(), triRule, client.QueryOptions{Strategy: "hc_tj"})
	if err == nil {
		t.Fatal("query succeeded under an always-drop plan")
	}
	if errors.Is(err, client.ErrRetriesExhausted) {
		t.Fatalf("disabled retries still reported exhaustion: %v", err)
	}
	if got := srv.Stats().Gate.Admitted; got != 1 {
		t.Fatalf("gate admitted %d attempts, want 1", got)
	}
	if n := len(sink.find(trace.KindRetry)); n != 0 {
		t.Fatalf("%d KindRetry events with retries disabled", n)
	}
}

// TestChaosTerminalNeverRetried asserts the retry loop's classification:
// out-of-memory, spill-budget, and client-cancel failures are terminal —
// one admission each, no re-execution.
func TestChaosTerminalNeverRetried(t *testing.T) {
	t.Run("oom", func(t *testing.T) {
		db := parajoin.Open(4, parajoin.WithMemoryLimit(64))
		if err := db.LoadEdges("E", parajoin.SyntheticGraph(1200, 200, 5)); err != nil {
			t.Fatal(err)
		}
		srv := server.New(db, server.Config{Logf: quiet, PerQueryMemTuples: 64})
		ln, err := net0(t)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln.ln)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			db.Close()
		})
		c := dial(t, ln.addr)
		_, err = c.Run(context.Background(), triRule, client.QueryOptions{Strategy: "hc_tj"})
		if !errors.Is(err, client.ErrOutOfMemory) {
			t.Fatalf("err = %v, want ErrOutOfMemory", err)
		}
		if got := srv.Stats().Gate.Admitted; got != 1 {
			t.Fatalf("OOM query admitted %d times, want exactly 1 (terminal errors must not retry)", got)
		}
	})

	t.Run("spill-budget", func(t *testing.T) {
		db := parajoin.Open(4, parajoin.WithMemoryLimit(64),
			parajoin.WithSpill(parajoin.SpillOnPressure), parajoin.WithSpillBudget(1))
		if err := db.LoadEdges("E", parajoin.SyntheticGraph(1200, 200, 5)); err != nil {
			t.Fatal(err)
		}
		srv := server.New(db, server.Config{Logf: quiet, PerQueryMemTuples: 64})
		ln, err := net0(t)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln.ln)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			db.Close()
		})
		c := dial(t, ln.addr)
		_, err = c.Run(context.Background(), triRule, client.QueryOptions{Strategy: "hc_tj"})
		if !errors.Is(err, client.ErrSpillBudget) {
			t.Fatalf("err = %v, want ErrSpillBudget", err)
		}
		if got := srv.Stats().Gate.Admitted; got != 1 {
			t.Fatalf("spill-budget query admitted %d times, want exactly 1", got)
		}
	})

	t.Run("client-cancel", func(t *testing.T) {
		// A long stall holds the query mid-run so the cancel lands while it
		// executes; the canceled attempt must not be retried even though the
		// stall alone would have let a re-run succeed.
		plan, err := fault.ParsePlan("seed=55;stall:exchange=0,worker=0,nth=1,delay=1m")
		if err != nil {
			t.Fatal(err)
		}
		srv, addr, _ := chaosServer(t, plan, server.Config{})
		c := dial(t, addr)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := c.Run(ctx, triRule, client.QueryOptions{Strategy: "hc_tj"})
			done <- err
		}()
		waitFor(t, "query admission", func() bool { return srv.Stats().Gate.InFlight == 1 })
		cancel()
		err = <-done
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		waitFor(t, "slot release", func() bool { return srv.Stats().Gate.InFlight == 0 })
		if got := srv.Stats().Gate.Admitted; got != 1 {
			t.Fatalf("canceled query admitted %d times, want exactly 1", got)
		}
	})
}
