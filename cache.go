package parajoin

import (
	"context"
	"fmt"
	"strings"

	"parajoin/internal/cache"
	"parajoin/internal/core"
	"parajoin/internal/engine"
	"parajoin/internal/shares"
)

// WithResultCache enables the result cache: a repeated bound rule under the
// same strategy at an unchanged catalog epoch replays its materialized
// answer byte-identically without planning or executing. tuples bounds the total
// resident tuples across entries, evicted LRU (<= 0 takes a default of
// 1Mi). Runs with EXPLAIN capture, under chaos fault injection, or with a
// resolved spill policy of SpillAlways bypass the cache in both
// directions.
func WithResultCache(tuples int64) Option {
	return func(db *DB) { db.resultCache = cache.NewResultCache(tuples) }
}

// resolvedSpill resolves a run's effective spill policy (RunOptions
// overrides the DB-wide policy).
func (db *DB) resolvedSpill(opts RunOptions) SpillPolicy {
	if opts.Spill != SpillDefault {
		return opts.Spill
	}
	return db.cluster.SpillPolicy
}

// resultProbe decides whether a run may use the result cache and, when it
// may, returns its key and the catalog epoch the probe is valid for. The
// bypass rules: no cache configured, EXPLAIN capture requested (the caller
// wants execution detail), a chaos fault plan wraps the transport (runs
// may fail or retry nondeterministically), or the run resolves to
// SpillAlways (a rehearsal mode whose point is exercising the spill path).
func (db *DB) resultProbe(q *core.Query, op string, opts RunOptions) (key string, epoch int64, ok bool) {
	if db.resultCache == nil || opts.Explain || db.chaos || db.resolvedSpill(opts) == SpillAlways {
		return "", 0, false
	}
	return cache.Key(q, op, string(opts.strategy())), db.cluster.DataEpoch(), true
}

// explainWithShares prefixes an EXPLAIN ANALYZE rendering with the
// HyperCube share grid the run shuffled through — the dimension an elastic
// resize changes, so before/after explains make the re-derivation visible.
// Non-HyperCube plans have no grid and pass through unchanged.
func explainWithShares(explain string, hc shares.Config, workers int) string {
	if explain == "" || hc.Cells() <= 0 || len(hc.Vars) == 0 {
		return explain
	}
	return fmt.Sprintf("shares: %s over %d workers\n%s", hc, workers, explain)
}

// explainWithExecution prefixes an EXPLAIN ANALYZE rendering with where the
// operators actually ran when it was not the coordinator: fragment dispatch
// pushed them to data nodes, and the explain should say so (and name them)
// before detailing per-operator work that happened elsewhere.
func explainWithExecution(explain string, report *engine.Report) string {
	if explain == "" || report == nil || report.RemoteFragments == 0 {
		return explain
	}
	return fmt.Sprintf("execution: distributed over %d data node(s): %s\n%s",
		report.RemoteFragments, strings.Join(report.RemoteMembers, ", "), explain)
}

// Prepared is a parameterized query: a rule with "?" placeholders, parsed
// and validated once, executed many times with different arguments.
// An execution binds its arguments as constants, so it shares result-cache
// entries with the ad-hoc rule that inlines the same values.
type Prepared struct {
	db *DB
	q  *core.Query
}

// Prepare parses a datalog rule that may contain "?" positional parameter
// placeholders in term or filter positions:
//
//	Follows(x) :- E(?, x), E(x, ?)
//
// The rule's atoms are validated against the loaded relations now;
// arguments are supplied per execution.
func (db *DB) Prepare(rule string) (*Prepared, error) {
	q, err := core.ParseRule(rule, db.dict)
	if err != nil {
		return nil, err
	}
	if err := db.checkAtoms(q); err != nil {
		return nil, err
	}
	return &Prepared{db: db, q: q}, nil
}

// NumParams returns the number of "?" placeholders.
func (p *Prepared) NumParams() int { return p.q.NumParams() }

// String renders the rule with "?" placeholders.
func (p *Prepared) String() string { return p.q.String() }

// Bind substitutes args for the placeholders and returns the bound query,
// ready to Run/Count under any options.
func (p *Prepared) Bind(args ...int64) (*Query, error) {
	bound, err := p.q.Bind(args)
	if err != nil {
		return nil, err
	}
	return &Query{db: p.db, q: bound}, nil
}

// Execute binds args and runs the query with the Auto strategy.
func (p *Prepared) Execute(ctx context.Context, args ...int64) (*Result, error) {
	return p.ExecuteWithOptions(ctx, RunOptions{}, args...)
}

// ExecuteWithOptions binds args and runs the query with explicit options.
func (p *Prepared) ExecuteWithOptions(ctx context.Context, opts RunOptions, args ...int64) (*Result, error) {
	q, err := p.Bind(args...)
	if err != nil {
		return nil, err
	}
	return q.RunWithOptions(ctx, opts)
}

// Count binds args and returns only the answer count.
func (p *Prepared) Count(ctx context.Context, args ...int64) (int64, *Stats, error) {
	q, err := p.Bind(args...)
	if err != nil {
		return 0, nil, err
	}
	return q.CountWithOptions(ctx, RunOptions{})
}

// CacheCounters is a point-in-time snapshot of the result cache's activity
// and residency.
type CacheCounters struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Tuples    int64
	Bytes     int64
}

// CacheStats describes the result cache's state for this database. The
// process-wide /metrics families (parajoin_cache_*) aggregate across all
// databases in the process; these counters are per-DB.
type CacheStats struct {
	ResultEnabled bool
	Result        CacheCounters
}

// CacheStats snapshots the database's cache activity.
func (db *DB) CacheStats() CacheStats {
	var cs CacheStats
	if db.resultCache != nil {
		cs.ResultEnabled = true
		cs.Result = CacheCounters(db.resultCache.Counters())
	}
	return cs
}

// DataEpoch returns the database's catalog mutation epoch: it advances on
// every Load (any path — rows, edges, CSV, synthetic generation), so two
// equal epochs bracket an interval with no data changes. Cached results
// are stamped with it.
func (db *DB) DataEpoch() int64 { return db.cluster.DataEpoch() }
