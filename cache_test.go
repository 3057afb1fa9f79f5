package parajoin

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// sortRows canonicalizes row order for set comparison.
func sortRows(rows [][]int64) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func cacheTestDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db := Open(4, opts...)
	t.Cleanup(func() { db.Close() })
	if err := db.LoadEdges("E", SyntheticGraph(2000, 300, 5)); err != nil {
		t.Fatal(err)
	}
	return db
}

const twoHopParam = "R(x,z) :- E(x,y), E(y,z), E(z,?)"

// A prepared execution binds its argument as a constant, so it shares a
// result-cache entry with the ad-hoc rule that inlines the same value.
func TestPreparedAndInlineConstantShareResult(t *testing.T) {
	db := cacheTestDB(t, WithResultCache(1<<16))
	ctx := context.Background()

	p, err := db.Prepare(twoHopParam)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := p.Execute(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if prepared.Stats.ResultCached {
		t.Fatal("first prepared execution claims a result-cache hit")
	}
	q, err := db.Query("R(x,z) :- E(x,y), E(y,z), E(z,3)")
	if err != nil {
		t.Fatal(err)
	}
	adhoc, err := q.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !adhoc.Stats.ResultCached {
		t.Fatal("ad-hoc rule with the constant inlined missed the prepared execution's entry")
	}
	if !reflect.DeepEqual(prepared.Columns, adhoc.Columns) || !reflect.DeepEqual(prepared.Rows, adhoc.Rows) {
		t.Fatal("shared entry did not replay byte-identically")
	}
}

// The result cache must replay byte-identically: same columns, same rows,
// same order.
func TestResultCacheByteIdenticalReplay(t *testing.T) {
	db := cacheTestDB(t, WithResultCache(1<<16))
	ctx := context.Background()

	run := func() *Result {
		t.Helper()
		q, err := db.Query("Tri(a,b,c) :- E(a,b), E(b,c), E(c,a)")
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	if first.Stats.ResultCached {
		t.Fatal("first run claims a result-cache hit")
	}
	second := run()
	if !second.Stats.ResultCached {
		t.Fatal("identical second run missed the result cache")
	}
	if !reflect.DeepEqual(first.Columns, second.Columns) || !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Fatal("cached replay is not byte-identical (columns, rows, or row order differ)")
	}

	// Counts replay through the same cache under a distinct key.
	q, err := db.Query("Tri(a,b,c) :- E(a,b), E(b,c), E(c,a)")
	if err != nil {
		t.Fatal(err)
	}
	n1, st1, err := q.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st1.ResultCached {
		t.Fatal("first count claims a result-cache hit")
	}
	n2, st2, err := q.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.ResultCached || n2 != n1 {
		t.Fatalf("count replay: cached=%v n=%d want n=%d", st2.ResultCached, n2, n1)
	}
}

// The epoch regression test the issue asks for: run, mutate the data,
// run the identical query again — the result cache must miss and the answer
// must reflect the new data.
func TestCachesInvalidateOnDataMutation(t *testing.T) {
	db := cacheTestDB(t, WithResultCache(1<<16))
	ctx := context.Background()
	const rule = "P(x,z) :- E(x,y), E(y,z)"

	count := func() (int64, *Stats) {
		t.Helper()
		q, err := db.Query(rule)
		if err != nil {
			t.Fatal(err)
		}
		n, st, err := q.Count(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return n, st
	}
	before, _ := count()
	if _, st := count(); !st.ResultCached {
		t.Fatal("repeat before mutation should hit the result cache")
	}

	// Reload E with one extra edge between fresh nodes: the answer changes.
	edges := append(SyntheticGraph(2000, 300, 5), [2]int64{9001, 9002}, [2]int64{9002, 9003})
	if err := db.LoadEdges("E", edges); err != nil {
		t.Fatal(err)
	}

	after, st := count()
	if st.ResultCached {
		t.Fatal("mutation between identical queries must be a result-cache miss")
	}
	if after != before+1 { // exactly the new 9001→9002→9003 two-hop
		t.Fatalf("stale answer after mutation: %d, want %d", after, before+1)
	}
}

// Every durable mutation path must advance the catalog epoch.
func TestDataEpochAdvancesOnEveryMutationPath(t *testing.T) {
	db := Open(2)
	defer db.Close()
	last := db.DataEpoch()
	step := func(what string) {
		t.Helper()
		if now := db.DataEpoch(); now <= last {
			t.Fatalf("%s did not advance the epoch (%d -> %d)", what, last, now)
		} else {
			last = now
		}
	}
	if err := db.Load("R", []string{"a", "b"}, [][]int64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	step("Load")
	if err := db.LoadEdges("E", [][2]int64{{1, 2}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	step("LoadEdges")
	if err := db.LoadCSVReader("S", strings.NewReader("a,b\n4,5\n")); err != nil {
		t.Fatal(err)
	}
	step("LoadCSVReader")
}

// Bypass rules: EXPLAIN capture and always-spill runs must not read or
// write the result cache.
func TestResultCacheBypasses(t *testing.T) {
	db := cacheTestDB(t, WithResultCache(1<<16))
	ctx := context.Background()
	const rule = "Tri(a,b,c) :- E(a,b), E(b,c), E(c,a)"

	q, err := db.Query(rule)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Run(ctx); err != nil { // primes the cache
		t.Fatal(err)
	}
	if res, err := q.RunWithOptions(ctx, RunOptions{}); err != nil {
		t.Fatal(err)
	} else if !res.Stats.ResultCached {
		t.Fatal("control: plain repeat should hit")
	}

	if _, err := q.ExplainAnalyze(ctx, Auto); err != nil {
		t.Fatal(err)
	}
	if res, err := q.RunWithOptions(ctx, RunOptions{Spill: SpillAlways}); err != nil {
		t.Fatal(err)
	} else if res.Stats.ResultCached {
		t.Fatal("always-spill run replayed from cache instead of exercising the spill path")
	}
}

// Ad-hoc Query must reject unbound parameters with a pointer to Prepare.
func TestQueryRejectsUnboundParams(t *testing.T) {
	db := cacheTestDB(t)
	if _, err := db.Query(twoHopParam); err == nil {
		t.Fatal("Query accepted a rule with unbound parameters")
	}
	p, err := db.Prepare(twoHopParam)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParams() != 1 {
		t.Fatalf("NumParams = %d", p.NumParams())
	}
	if _, err := p.Bind(); err == nil {
		t.Fatal("Bind with missing args succeeded")
	}
	if _, err := p.Bind(1, 2); err == nil {
		t.Fatal("Bind with extra args succeeded")
	}
}

// Prepare validates atoms eagerly, before any execution.
func TestPrepareValidatesAtoms(t *testing.T) {
	db := cacheTestDB(t)
	if _, err := db.Prepare("R(x) :- NoSuch(x,?)"); err == nil {
		t.Fatal("Prepare accepted an unknown relation")
	}
	if _, err := db.Prepare("R(x) :- E(x,?,?)"); err == nil {
		t.Fatal("Prepare accepted a wrong-arity atom")
	}
}
