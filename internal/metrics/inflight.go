package metrics

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// QueryProgress is the live progress record of one in-flight query. The
// serving layer creates one per query, threads it through the run context
// (WithQuery), and the engine updates it from the execution hot path —
// every mutator is a single atomic store/add and is safe on a nil receiver,
// so engine code can update unconditionally whether or not a serving layer
// is present.
type QueryProgress struct {
	id    int64
	rule  string
	start time.Time

	stage      atomic.Pointer[string]
	attempt    atomic.Int64
	tuples     atomic.Int64
	spillBytes atomic.Int64
	// mem reads the running engine run's resident tuples (nil between
	// runs, which reads as 0).
	mem atomic.Pointer[func() int64]
}

// NewQueryProgress creates a progress record for a query identified by id
// running rule.
func NewQueryProgress(id int64, rule string) *QueryProgress {
	p := &QueryProgress{id: id, rule: rule, start: time.Now()}
	p.SetStage("queued")
	p.attempt.Store(1)
	return p
}

// SetStage records the query's current lifecycle stage ("queued",
// "planning", "executing round 2/3", ...).
func (p *QueryProgress) SetStage(stage string) {
	if p == nil {
		return
	}
	p.stage.Store(&stage)
}

// SetAttempt records the execution attempt number (1 for the first run).
func (p *QueryProgress) SetAttempt(n int64) {
	if p == nil {
		return
	}
	p.attempt.Store(n)
}

// AddTuples counts result tuples produced so far.
func (p *QueryProgress) AddTuples(n int64) {
	if p == nil {
		return
	}
	p.tuples.Add(n)
}

// AttachMem makes resident the source of the query's in-memory tuple
// reading until the returned detach is called; the engine attaches its
// run's memory accountant for the length of the run. Reading the live
// accountant, rather than counting every reservation here, keeps the
// per-tuple reservation path free of a counter all workers share. A
// detach after a later attach leaves the later source in place.
func (p *QueryProgress) AttachMem(resident func() int64) (detach func()) {
	if p == nil {
		return func() {}
	}
	src := &resident
	p.mem.Store(src)
	return func() { p.mem.CompareAndSwap(src, nil) }
}

// AddSpillBytes counts bytes the query has spilled to disk so far.
func (p *QueryProgress) AddSpillBytes(n int64) {
	if p == nil {
		return
	}
	p.spillBytes.Add(n)
}

// QuerySnapshot is a point-in-time copy of one in-flight query's progress —
// the row shape behind /debug/queries.
type QuerySnapshot struct {
	ID         int64         `json:"id"`
	Rule       string        `json:"rule"`
	Stage      string        `json:"stage"`
	Elapsed    time.Duration `json:"elapsed"`
	Attempt    int64         `json:"attempt"`
	Tuples     int64         `json:"tuples"`
	MemTuples  int64         `json:"mem_tuples"`
	SpillBytes int64         `json:"spill_bytes"`
}

func (p *QueryProgress) snapshot(now time.Time) QuerySnapshot {
	stage := ""
	if s := p.stage.Load(); s != nil {
		stage = *s
	}
	var mem int64
	if src := p.mem.Load(); src != nil {
		mem = (*src)()
	}
	return QuerySnapshot{
		ID:         p.id,
		Rule:       p.rule,
		Stage:      stage,
		Elapsed:    now.Sub(p.start),
		Attempt:    p.attempt.Load(),
		Tuples:     p.tuples.Load(),
		MemTuples:  mem,
		SpillBytes: p.spillBytes.Load(),
	}
}

var inflight struct {
	mu      sync.Mutex
	queries map[*QueryProgress]struct{}
}

// TrackQuery adds p to the process-wide in-flight table. Pair with
// UntrackQuery when the query finishes.
func TrackQuery(p *QueryProgress) {
	if p == nil {
		return
	}
	inflight.mu.Lock()
	if inflight.queries == nil {
		inflight.queries = make(map[*QueryProgress]struct{})
	}
	inflight.queries[p] = struct{}{}
	inflight.mu.Unlock()
}

// UntrackQuery removes p from the in-flight table.
func UntrackQuery(p *QueryProgress) {
	if p == nil {
		return
	}
	inflight.mu.Lock()
	delete(inflight.queries, p)
	inflight.mu.Unlock()
}

// InflightQueries snapshots every tracked query, ordered by query id.
func InflightQueries() []QuerySnapshot {
	now := time.Now()
	inflight.mu.Lock()
	out := make([]QuerySnapshot, 0, len(inflight.queries))
	for p := range inflight.queries {
		out = append(out, p.snapshot(now))
	}
	inflight.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

type queryCtxKey struct{}

// WithQuery attaches a progress record to ctx for the engine to find.
func WithQuery(ctx context.Context, p *QueryProgress) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, queryCtxKey{}, p)
}

// QueryFrom extracts the progress record from ctx (nil when absent — and
// every QueryProgress method tolerates nil, so callers never need to check).
func QueryFrom(ctx context.Context) *QueryProgress {
	if ctx == nil {
		return nil
	}
	p, _ := ctx.Value(queryCtxKey{}).(*QueryProgress)
	return p
}
