package parajoin

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"parajoin/internal/engine"
	"parajoin/internal/planner"
	"parajoin/internal/rel"
)

// sortedRows canonicalizes a result for comparison.
func sortedRows(rows [][]int64) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func equalRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var (
	mixRules = []string{
		"Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)",
		"Chain(x,y,z,w) :- E(x,y), E(y,z), E(z,w)",
		"Twohop(x,z) :- E(x,y), E(y,z)",
	}
	mixStrategies = []Strategy{HyperCubeTributary, RegularHash, RegularTributary, BroadcastHash}
)

func mixEdges() [][2]int64 { return SyntheticGraph(1200, 150, 3) }

// runParallelMix fires many simultaneous queries — the epoch-based
// exchange namespacing under real contention — and asserts every result
// matches its serial baseline on db, which it loads with mixEdges. run
// executes call g: rule under s, returning its rows canonicalized by
// sortedRows or, with count set, its answer count.
func runParallelMix(t *testing.T, db *DB, run func(g int, rule string, s Strategy, count bool) ([]string, int64, error)) {
	t.Helper()
	if err := db.LoadEdges("E", mixEdges()); err != nil {
		t.Fatal(err)
	}

	// Serial baselines, one per (rule, strategy).
	type key struct {
		rule int
		strt Strategy
	}
	wantRows := map[key][]string{}
	wantCount := map[key]int64{}
	for ri, rule := range mixRules {
		q, err := db.Query(rule)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range mixStrategies {
			res, err := q.RunWith(context.Background(), s)
			if err != nil {
				t.Fatalf("serial %s/%s: %v", rule, s, err)
			}
			n, _, err := q.CountWith(context.Background(), s)
			if err != nil {
				t.Fatalf("serial count %s/%s: %v", rule, s, err)
			}
			k := key{ri, s}
			wantRows[k] = sortedRows(res.Rows)
			wantCount[k] = n
		}
	}

	const parallelism = 24
	var wg sync.WaitGroup
	errs := make([]error, parallelism)
	for g := 0; g < parallelism; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := key{g % len(mixRules), mixStrategies[g%len(mixStrategies)]}
			rule := mixRules[k.rule]
			rows, n, err := run(g, rule, k.strt, g%2 == 1)
			switch {
			case err != nil:
				errs[g] = fmt.Errorf("parallel call %d %s/%s: %w", g, rule, k.strt, err)
			case g%2 == 0 && !equalRows(rows, wantRows[k]):
				errs[g] = fmt.Errorf("parallel run %s/%s: %d rows, want %d (results diverge from serial)",
					rule, k.strt, len(rows), len(wantRows[k]))
			case g%2 == 1 && n != wantCount[k]:
				errs[g] = fmt.Errorf("parallel count %s/%s: got %d, want %d", rule, k.strt, n, wantCount[k])
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelRunsMemTransport runs the mix through the public API of one
// single-process DB.
func TestParallelRunsMemTransport(t *testing.T) {
	db := Open(4)
	defer db.Close()
	runParallelMix(t, db, func(_ int, rule string, s Strategy, count bool) ([]string, int64, error) {
		q, err := db.Query(rule)
		if err != nil {
			return nil, 0, err
		}
		if count {
			n, _, err := q.CountWith(context.Background(), s)
			return nil, n, err
		}
		res, err := q.RunWith(context.Background(), s)
		if err != nil {
			return nil, 0, err
		}
		return sortedRows(res.Rows), 0, nil
	})
}

// TestParallelRunsTCPTransport runs the mix on a deployment split across
// two DBs, so every query's shuffles cross sockets. Concurrent queries
// pin disjoint epochs: the two processes' own epoch counters agree only
// when both issue queries in the same order.
func TestParallelRunsTCPTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("split TCP deployment in -short mode")
	}
	dbs := openSplit(t, 4)
	for _, db := range dbs {
		if err := db.LoadEdges("E", mixEdges()); err != nil {
			t.Fatal(err)
		}
	}
	baseline := testDB(t, 4)
	runParallelMix(t, baseline, func(g int, rule string, s Strategy, count bool) ([]string, int64, error) {
		// Multi-round plans use epoch+i per round; 16 apart keeps calls disjoint.
		return runSplitPinned(dbs, rule, s, count, int64(1000+16*g))
	})
}

// openSplit opens one deployment split between two DBs, as two processes
// would run it: each hosts half of the workers and reaches the other half
// over loopback TCP. Both must load the same relations and run the same
// queries.
func openSplit(t *testing.T, workers int, opts ...Option) [2]*DB {
	t.Helper()
	addrs := make([]string, workers)
	var hosted [2][]int
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
		hosted[2*i/workers] = append(hosted[2*i/workers], i)
	}
	a, err := OpenTCP(addrs, hosted[0], opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	trA := a.cluster.Transport().(*engine.TCPTransport)
	b, err := OpenTCP(trA.Addrs(), hosted[1], opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	trA.SetPeerAddrs(b.cluster.Transport().(*engine.TCPTransport).Addrs())
	return [2]*DB{a, b}
}

// runSplitPinned runs rule under s on both DBs of a split deployment at
// once, pinned to epoch, and returns the whole deployment's rows
// canonicalized by sortedRows or, with count set, its answer count. Each
// DB plans for itself, as the SPMD contract of OpenTCP expects, and each
// half must have put bytes on the wire.
func runSplitPinned(dbs [2]*DB, rule string, s Strategy, count bool, epoch int64) ([]string, int64, error) {
	var outs [2]*rel.Relation
	var errs [2]error
	var full [2]bool
	var wg sync.WaitGroup
	for i, db := range dbs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, err := db.Query(rule)
			if err != nil {
				errs[i] = err
				return
			}
			full[i] = q.q.IsFull()
			res, _, err := q.planFor(s)
			if err != nil {
				errs[i] = err
				return
			}
			if count {
				var head []string
				for _, v := range q.q.HeadVars() {
					head = append(head, string(v))
				}
				if errs[i] = planner.WrapCount(res, full[i], head); errs[i] != nil {
					return
				}
			}
			out, report, err := db.cluster.RunRoundsOpts(context.Background(), res.Rounds, engine.RunOpts{Epoch: epoch})
			if err == nil && report.BytesSent == 0 {
				err = fmt.Errorf("half %d sent no bytes over the wire", i)
			}
			outs[i], errs[i] = out, err
		}()
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return nil, 0, err
	}
	union := rel.Concat("result", outs[:])
	if count {
		var n int64
		for _, t := range union.Tuples {
			n += t[0]
		}
		return nil, n, nil
	}
	if !full[0] {
		union.Dedup()
	}
	rows := make([][]int64, len(union.Tuples))
	for i, t := range union.Tuples {
		rows[i] = t
	}
	return sortedRows(rows), 0, nil
}

// TestLoadDuringQueries races Load against Run on the public API (the
// engine-level regression test lives in internal/engine).
func TestLoadDuringQueries(t *testing.T) {
	db := Open(4)
	defer db.Close()
	if err := db.LoadEdges("E", SyntheticGraph(800, 120, 1)); err != nil {
		t.Fatal(err)
	}
	q, err := db.Query("Twohop(x,z) :- E(x,y), E(y,z)")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.LoadEdges("Other", SyntheticGraph(300, 80, i)); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 10; i++ {
		if _, err := q.Run(context.Background()); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCloseWhileRunning checks the DB-level ErrClosed contract.
func TestCloseWhileRunning(t *testing.T) {
	db := Open(4)
	if err := db.LoadEdges("E", SyntheticGraph(500, 100, 1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	q, err := db.Query("Twohop(x,z) :- E(x,y), E(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Run(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("run after close: err = %v, want ErrClosed", err)
	}
}
