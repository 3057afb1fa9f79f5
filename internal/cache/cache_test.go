package cache

import (
	"testing"

	"parajoin/internal/core"
)

func parse(t *testing.T, rule string) *core.Query {
	t.Helper()
	q, err := core.ParseRule(rule, nil)
	if err != nil {
		t.Fatalf("parse %q: %v", rule, err)
	}
	return q
}

// Key separates everything a replay must match: the head name, the
// constants, the column names, the operation and the strategy. The same
// bound rule, however it was produced, keys equally.
func TestResultKeySeparations(t *testing.T) {
	base := parse(t, "A(x) :- E(x,5)")
	seen := map[string]string{}
	for _, c := range []struct {
		name string
		key  string
	}{
		{"base", Key(base, "run", "auto")},
		{"head name", Key(parse(t, "B(x) :- E(x,5)"), "run", "auto")},
		{"constant", Key(parse(t, "A(x) :- E(x,6)"), "run", "auto")},
		{"column name", Key(parse(t, "A(y) :- E(y,5)"), "run", "auto")},
		{"constant position", Key(parse(t, "A(x) :- E(5,x)"), "run", "auto")},
		{"filter op", Key(parse(t, "A(x) :- E(x,5), x > 3"), "run", "auto")},
		{"op", Key(base, "count", "auto")},
		{"strategy", Key(base, "run", "hc_tj")},
	} {
		if prev, dup := seen[c.key]; dup {
			t.Fatalf("%s and %s share a key: %s", prev, c.name, c.key)
		}
		seen[c.key] = c.name
	}

	prepared, err := parse(t, "A(x) :- E(x,?)").Bind([]int64{5})
	if err != nil {
		t.Fatal(err)
	}
	for _, same := range []*core.Query{parse(t, "A(x) :- E(x,5)"), prepared} {
		if got, want := Key(same, "run", "auto"), Key(base, "run", "auto"); got != want {
			t.Fatalf("same bound rule keyed differently:\n%s\n%s", got, want)
		}
	}
}

func TestResultCacheCloneIsolation(t *testing.T) {
	c := NewResultCache(100)
	orig := &Result{Strategy: "hc_tj", Columns: []string{"x"}, Rows: [][]int64{{1}, {2}}}
	c.Put("k", 1, orig)
	orig.Rows[0][0] = 99 // caller keeps mutating its copy after Put

	got := c.Get("k", 1)
	if got.Rows[0][0] != 1 {
		t.Fatal("Put did not deep-copy: caller mutation reached the cache")
	}
	got.Rows[1][0] = 77 // and mutates what Get handed out

	again := c.Get("k", 1)
	if again.Rows[1][0] != 2 {
		t.Fatal("Get did not deep-copy: one caller's mutation reached the next")
	}
}

func TestResultCacheBudget(t *testing.T) {
	c := NewResultCache(3)
	rows := func(n int64) [][]int64 {
		out := make([][]int64, n)
		for i := range out {
			out[i] = []int64{int64(i)}
		}
		return out
	}
	c.Put("two", 1, &Result{Rows: rows(2)})
	c.Put("one", 1, &Result{Rows: rows(1)})
	if cs := c.Counters(); cs.Tuples != 3 || cs.Entries != 2 {
		t.Fatalf("residency: %+v", cs)
	}
	// A 4-tuple answer exceeds the whole budget: dropped, residents stay.
	c.Put("big", 1, &Result{Rows: rows(4)})
	if c.Get("big", 1) != nil {
		t.Fatal("over-budget entry was admitted")
	}
	if c.Get("two", 1) == nil || c.Get("one", 1) == nil {
		t.Fatal("over-budget Put evicted residents for nothing")
	}
	// A fitting answer evicts LRU entries until there is room.
	c.Get("two", 1) // "one" is now least recent
	c.Put("fresh", 1, &Result{Rows: rows(3)})
	if c.Get("one", 1) != nil || c.Get("two", 1) != nil {
		t.Fatal("LRU eviction should have cleared both residents")
	}
	if c.Get("fresh", 1) == nil {
		t.Fatal("fitting entry missing after eviction")
	}
}

func TestResultCacheCountsOccupyOneTuple(t *testing.T) {
	c := NewResultCache(2)
	c.Put("n1", 1, &Result{Count: 12345})
	c.Put("n2", 1, &Result{Count: 67890})
	if cs := c.Counters(); cs.Tuples != 2 || cs.Entries != 2 {
		t.Fatalf("count entries should cost one tuple each: %+v", cs)
	}
	if got := c.Get("n1", 1); got == nil || got.Count != 12345 || got.Rows != nil {
		t.Fatalf("count replay: %+v", got)
	}
}
