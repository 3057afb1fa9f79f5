package cache

import (
	"container/list"
	"sync"

	"parajoin/internal/core"
)

// Key is the result-cache key for a fully bound query q run as op
// ("run"/"count") under the requested strategy (plans, and therefore row
// order, differ across strategies). The rendered rule carries the head
// name, the column names and every constant, so two queries share a key
// only when they are the same bound rule.
func Key(q *core.Query, op, strategy string) string {
	return op + "|" + strategy + "|" + q.String()
}

// Result is a cached query answer: materialized rows for a run, a scalar
// for a count (Rows nil). Strategy is the resolved execution strategy the
// answer was computed under, replayed into the hit's Stats.
type Result struct {
	Strategy string
	Columns  []string
	Rows     [][]int64
	Count    int64
}

// bytesPerValue matches the spill layer's encoding convention: every
// value is one fixed-width int64.
const bytesPerValue = 8

func (r *Result) tuples() int64 {
	if r.Rows == nil {
		return 1 // a count still occupies a slot
	}
	return int64(len(r.Rows))
}

func (r *Result) bytes() int64 {
	n := int64(len(r.Columns)) * bytesPerValue
	for _, row := range r.Rows {
		n += int64(len(row)) * bytesPerValue
	}
	if n == 0 {
		n = bytesPerValue
	}
	return n
}

// clone deep-copies the result so cache residents and caller-visible
// values never share row storage.
func (r *Result) clone() *Result {
	out := &Result{
		Strategy: r.Strategy,
		Columns:  append([]string(nil), r.Columns...),
		Count:    r.Count,
	}
	if r.Rows != nil {
		out.Rows = make([][]int64, len(r.Rows))
		for i, row := range r.Rows {
			out.Rows[i] = append([]int64(nil), row...)
		}
	}
	return out
}

// Counters is a point-in-time snapshot of the result cache's activity and
// residency.
type Counters struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Tuples    int64
	Bytes     int64
}

// ResultCache is an LRU cache of materialized answers keyed by Key,
// bounded by a total tuple budget. Entries are stamped with the catalog
// epoch they were computed at; a Get at a newer epoch evicts them.
type ResultCache struct {
	mu      sync.Mutex
	budget  int64 // max resident tuples
	tuples  int64
	bytes   int64
	ll      *list.List
	items   map[string]*list.Element
	hits    int64
	misses  int64
	evicted int64
}

type resultItem struct {
	key    string
	epoch  int64
	result *Result
}

// NewResultCache creates a result cache holding at most budget tuples
// across all entries (budget <= 0 takes a default of 1Mi tuples).
func NewResultCache(budget int64) *ResultCache {
	if budget <= 0 {
		budget = 1 << 20
	}
	return &ResultCache{budget: budget, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns a deep copy of the answer cached for key at the given
// catalog epoch, or nil. A stale-epoch entry is evicted and reported as a
// miss.
func (c *ResultCache) Get(key string, epoch int64) *Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if ok {
		it := el.Value.(*resultItem)
		if it.epoch == epoch {
			c.ll.MoveToFront(el)
			c.hits++
			resultHits.Inc()
			return it.result.clone()
		}
		c.removeLocked(el)
		c.evicted++
		resultEvictions.Inc()
	}
	c.misses++
	resultMisses.Inc()
	return nil
}

// Put stores a deep copy of the answer computed at the given catalog
// epoch. Answers larger than the whole budget are dropped; otherwise
// least-recently-used entries are evicted until the new resident fits.
func (c *ResultCache) Put(key string, epoch int64, r *Result) {
	if r == nil {
		return
	}
	r = r.clone()
	t, by := r.tuples(), r.bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.budget {
		return
	}
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
	}
	for c.tuples+t > c.budget && c.ll.Len() > 0 {
		c.removeLocked(c.ll.Back())
		c.evicted++
		resultEvictions.Inc()
	}
	el := c.ll.PushFront(&resultItem{key: key, epoch: epoch, result: r})
	c.items[key] = el
	c.tuples += t
	c.bytes += by
	resultTuples.Add(t)
	resultBytes.Add(by)
}

func (c *ResultCache) removeLocked(el *list.Element) {
	it := el.Value.(*resultItem)
	c.ll.Remove(el)
	delete(c.items, it.key)
	t, by := it.result.tuples(), it.result.bytes()
	c.tuples -= t
	c.bytes -= by
	resultTuples.Add(-t)
	resultBytes.Add(-by)
}

// Counters snapshots the cache's activity and residency.
func (c *ResultCache) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Counters{
		Hits: c.hits, Misses: c.misses, Evictions: c.evicted,
		Entries: c.ll.Len(), Tuples: c.tuples, Bytes: c.bytes,
	}
}
