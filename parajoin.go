// Package parajoin is an embeddable shared-nothing parallel query engine
// for multiway join queries, reproducing "From Theory to Practice:
// Efficient Join Query Evaluation in a Parallel Database System" (Chu,
// Balazinska, Suciu — SIGMOD 2015).
//
// Queries are conjunctive queries (joins, selections, comparison filters)
// written in datalog notation. The engine evaluates them across N workers
// with a choice of shuffle × join strategies:
//
//   - HyperCubeTributary (the paper's headline): a single-round HyperCube
//     shuffle (shares picked by the paper's Algorithm 1) feeding a
//     worst-case-optimal Tributary join (Leapfrog Triejoin over sorted
//     arrays, variable order picked by the paper's Section-5 cost model).
//   - RegularHash / RegularTributary: single-attribute hash shuffles with a
//     left-deep tree of binary joins (pipelined symmetric hash joins, or
//     binary sort-merge Tributary joins).
//   - BroadcastHash / BroadcastTributary: keep the largest relation in
//     place, broadcast the rest, evaluate locally.
//   - Semijoin: the distributed Yannakakis reduction (acyclic queries).
//   - Auto: pick between HyperCube and regular plans with the paper's
//     Table-6 rule of thumb (large intermediates and skew → HyperCube).
//
// A minimal session:
//
//	db := parajoin.Open(8)
//	defer db.Close()
//	db.LoadEdges("Follows", edges)
//	q, _ := db.Query("Triangles(x,y,z) :- Follows(x,y), Follows(y,z), Follows(z,x)")
//	res, _ := q.Run(context.Background())
//	fmt.Println(len(res.Rows), "triangles;", res.Stats.TuplesShuffled, "tuples shuffled")
package parajoin

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parajoin/internal/cache"
	"parajoin/internal/core"
	"parajoin/internal/engine"
	"parajoin/internal/planner"
	"parajoin/internal/rel"
	"parajoin/internal/shares"
	"parajoin/internal/stats"
	"parajoin/internal/trace"
)

// Strategy selects how a query is shuffled and joined.
type Strategy string

// The available execution strategies.
const (
	// Auto picks a strategy from the statistics (see package comment).
	Auto Strategy = "auto"
	// HyperCubeTributary is the paper's HC_TJ configuration.
	HyperCubeTributary Strategy = "hc_tj"
	// HyperCubeHash is HC_HJ.
	HyperCubeHash Strategy = "hc_hj"
	// RegularHash is RS_HJ.
	RegularHash Strategy = "rs_hj"
	// RegularTributary is RS_TJ.
	RegularTributary Strategy = "rs_tj"
	// BroadcastHash is BR_HJ.
	BroadcastHash Strategy = "br_hj"
	// BroadcastTributary is BR_TJ.
	BroadcastTributary Strategy = "br_tj"
	// Semijoin is the distributed Yannakakis reduction; acyclic queries only.
	Semijoin Strategy = "semijoin"
)

func (s Strategy) planConfig() (planner.PlanConfig, error) {
	switch s {
	case HyperCubeTributary:
		return planner.HCTJ, nil
	case HyperCubeHash:
		return planner.HCHJ, nil
	case RegularHash:
		return planner.RSHJ, nil
	case RegularTributary:
		return planner.RSTJ, nil
	case BroadcastHash:
		return planner.BRHJ, nil
	case BroadcastTributary:
		return planner.BRTJ, nil
	case Semijoin:
		return planner.SemiJoin, nil
	}
	return 0, fmt.Errorf("parajoin: unknown strategy %q", s)
}

// Strategies lists the six explicit strategies of the paper's evaluation,
// each of which plans any query. It leaves out Auto, which picks one of
// them, and Semijoin, which plans acyclic queries only.
func Strategies() []Strategy {
	return []Strategy{RegularHash, RegularTributary, BroadcastHash, BroadcastTributary, HyperCubeHash, HyperCubeTributary}
}

// ParseStrategy resolves a strategy name in any case — Auto, Semijoin or
// one of Strategies() — and maps "" to Auto.
func ParseStrategy(name string) (Strategy, error) {
	s := Strategy(strings.ToLower(name))
	if s == "" || s == Auto {
		return Auto, nil
	}
	if _, err := s.planConfig(); err != nil {
		return "", err
	}
	return s, nil
}

// ErrClosed is returned by queries run after (or interrupted by) Close.
var ErrClosed = engine.ErrClosed

// ErrOutOfMemory is returned when a query exceeds its per-worker
// materialization budget (WithMemoryLimit or RunOptions.MaxLocalTuples)
// and spilling is off (or the remaining state cannot spill).
var ErrOutOfMemory = engine.ErrOutOfMemory

// ErrSpillBudget is returned when a query's spilled bytes exceed the hard
// disk cap (WithSpillBudget).
var ErrSpillBudget = engine.ErrSpillBudget

// SpillPolicy decides whether a query over its memory budget degrades to
// disk or fails.
type SpillPolicy = engine.SpillPolicy

// The spill policies.
const (
	// SpillDefault inherits the enclosing scope's policy (RunOptions →
	// DB → SpillOff).
	SpillDefault = engine.SpillDefault
	// SpillOff fails budget-exceeding queries with ErrOutOfMemory — the
	// default.
	SpillOff = engine.SpillOff
	// SpillOnPressure seals spillable operator state to disk when the
	// budget is hit, letting the query complete with bounded memory.
	SpillOnPressure = engine.SpillOnPressure
	// SpillAlways spills eagerly regardless of pressure (testing / worst-
	// case rehearsal).
	SpillAlways = engine.SpillAlways
)

// ParseSpillPolicy parses "off", "on-pressure", "always", or ""
// (default).
func ParseSpillPolicy(s string) (SpillPolicy, error) { return engine.ParseSpillPolicy(s) }

// DB is an in-process shared-nothing parallel database: N workers, each
// owning a horizontal fragment of every loaded relation.
//
// A DB is safe for concurrent use: Load and Query.Run/Count calls may
// overlap from any number of goroutines. Each run plans against the
// immutable snapshot of the catalog published by the latest Load, runs in
// a private exchange namespace, and keeps multi-round intermediates in
// run-private storage.
type DB struct {
	// mu serializes mutations; readers load snap without it.
	mu       sync.Mutex
	snap     atomic.Pointer[planSnapshot]
	cluster  *engine.Cluster
	dict     *rel.Dict
	workers  int
	maxOrder int
	seed     int64
	// resultCache is nil unless enabled with WithResultCache; chaos records
	// that a fault plan wraps the transport, which disqualifies runs from
	// the result cache (see cache.go).
	resultCache *cache.ResultCache
	chaos       bool
}

// planSnapshot is everything planning reads about the data at one data
// epoch. It is immutable once published: a mutation publishes a successor
// that re-collects only the relation it loaded and shares every other
// entry, so a plan costs one pointer read however much data is loaded.
type planSnapshot struct {
	epoch   int64
	catalog *stats.Catalog
	rels    map[string]*rel.Relation
}

// install loads r into the cluster — round-robin, or as the given
// per-worker fragments — and publishes the snapshot that includes it. The
// one statistics scan r ever gets happens here, before the lock is taken.
func (db *DB) install(r *rel.Relation, frags []*rel.Relation) {
	st := stats.Collect(r)
	db.mu.Lock()
	defer db.mu.Unlock()
	old := db.snap.Load()
	rels := make(map[string]*rel.Relation, len(old.rels)+1)
	for name, o := range old.rels {
		rels[name] = o
	}
	rels[r.Name] = r
	if frags == nil {
		db.cluster.Load(r)
	} else {
		db.cluster.LoadFragments(r.Name, frags)
	}
	db.snap.Store(&planSnapshot{epoch: db.cluster.DataEpoch(), catalog: old.catalog.With(st), rels: rels})
}

// Option configures Open.
type Option func(*DB)

// WithMemoryLimit caps the tuples a single worker may materialize during a
// query; exceeding it fails the query with an out-of-memory error (the
// behaviour the paper reports as FAIL).
func WithMemoryLimit(tuples int64) Option {
	return func(db *DB) { db.cluster.MaxLocalTuples = tuples }
}

// WithBatchSize sets the exchange/operator batch granularity.
func WithBatchSize(n int) Option {
	return func(db *DB) { db.cluster.BatchSize = n }
}

// WithSpill sets the database-wide spill policy. With SpillOnPressure a
// query that crosses its memory budget degrades to disk instead of
// failing: spillable operator state (Tributary sort runs, exchange
// materializations, result buffers) is sealed as compact segments appended
// to one spill file per query and merged back streamingly.
func WithSpill(p SpillPolicy) Option {
	return func(db *DB) { db.cluster.SpillPolicy = p }
}

// WithSpillDir sets the base directory for per-query spill directories
// ("" uses the system temp directory).
func WithSpillDir(dir string) Option {
	return func(db *DB) { db.cluster.SpillDir = dir }
}

// WithSpillBudget caps the bytes a single query may spill to disk; 0
// means unlimited. The tuple budget is soft (it degrades to disk); this
// cap is hard — exceeding it fails the query with ErrSpillBudget.
func WithSpillBudget(bytes int64) Option {
	return func(db *DB) { db.cluster.MaxSpillBytes = bytes }
}

// WithParallelism sets how many sub-joins each worker may run concurrently
// inside one Tributary join. 0 (the default) resolves automatically from
// GOMAXPROCS and the worker count; 1 runs the join as one shard; K>1
// splits the first join attribute's domain into contiguous ranges joined by
// up to K goroutines. Output is bit-identical to the one-shard run whatever
// K is: the ranges are disjoint and concatenated in domain order.
func WithParallelism(k int) Option {
	return func(db *DB) { db.cluster.Parallelism = k }
}

// WithSeed seeds the variable-order sampling for reproducible plans.
func WithSeed(seed int64) Option {
	return func(db *DB) { db.seed = seed }
}

// Open creates a database with the given number of workers, all hosted in
// this process: exchanges pass batches in memory and open no socket.
func Open(workers int, opts ...Option) *DB {
	return newDB(engine.NewCluster(workers), workers, opts)
}

// OpenTCP creates a database that runs the workers listed in hosted and
// reaches every other worker over TCP. addrs[i] is worker i's listen
// address; each worker must be hosted by exactly one process. Batches
// between two hosted workers stay in memory, so only a multi-process
// deployment puts tuples on the wire. Every process must load the same
// relations and execute the same sequence of queries with the same options
// (the SPMD contract extended across processes); each process's results
// cover its hosted workers.
func OpenTCP(addrs []string, hosted []int, opts ...Option) (*DB, error) {
	tr, err := engine.NewTCPTransport(addrs, hosted)
	if err != nil {
		return nil, err
	}
	cluster := engine.NewPartialCluster(len(addrs), hosted, tr)
	return newDB(cluster, len(addrs), opts), nil
}

func newDB(cluster *engine.Cluster, workers int, opts []Option) *DB {
	db := &DB{
		cluster:  cluster,
		dict:     rel.NewDict(),
		workers:  workers,
		maxOrder: 5040,
		seed:     1,
	}
	db.snap.Store(&planSnapshot{epoch: cluster.DataEpoch(), catalog: stats.NewCatalog(), rels: map[string]*rel.Relation{}})
	for _, o := range opts {
		o(db)
	}
	return db
}

// Close releases the database's transport. It is idempotent and safe while
// queries run: in-flight runs fail with ErrClosed, as does any later Run.
func (db *DB) Close() error { return db.cluster.Close() }

// Workers returns the cluster size.
func (db *DB) Workers() int { return db.workers }

// SetRemoteRunner installs (or, given nil, removes) a remote execution hook
// on the database's engine: when set, whole multi-round plans are forwarded
// to it instead of executing on the coordinator's local workers. Planning,
// caching, and result handling are unchanged — only where the operators run
// moves. The serving layer installs a cluster fragment dispatcher here after
// every elastic rebuild; see DESIGN.md, "Distributed execution".
func (db *DB) SetRemoteRunner(r engine.RemoteRunner) { db.cluster.Remote = r }

// Load registers a relation and round-robin-partitions its rows across the
// workers. Values are int64; use Code to encode strings.
func (db *DB) Load(name string, columns []string, rows [][]int64) error {
	if name == "" || len(columns) == 0 {
		return fmt.Errorf("parajoin: relation needs a name and at least one column")
	}
	r := rel.New(name, columns...)
	for i, row := range rows {
		if len(row) != len(columns) {
			return fmt.Errorf("parajoin: row %d of %s has %d values for %d columns", i, name, len(row), len(columns))
		}
		r.Append(rel.Tuple(row).Clone())
	}
	db.install(r, nil)
	return nil
}

// LoadEdges loads a binary relation of (src, dst) pairs — the common case
// for graph workloads.
func (db *DB) LoadEdges(name string, edges [][2]int64) error {
	rows := make([][]int64, len(edges))
	for i, e := range edges {
		rows[i] = []int64{e[0], e[1]}
	}
	return db.Load(name, []string{"src", "dst"}, rows)
}

// Relations lists the loaded relation names.
func (db *DB) Relations() []string { return sortedNames(db.snap.Load().rels) }

func sortedNames(rels map[string]*rel.Relation) []string {
	names := make([]string, 0, len(rels))
	for n := range rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Columns returns the column names of a loaded relation (nil when unknown).
func (db *DB) Columns(name string) []string {
	if r := db.snap.Load().rels[name]; r != nil {
		return append([]string(nil), r.Schema...)
	}
	return nil
}

// Cardinality returns the number of rows in a loaded relation (0 when
// unknown).
func (db *DB) Cardinality(name string) int {
	if r := db.snap.Load().rels[name]; r != nil {
		return r.Cardinality()
	}
	return 0
}

// MemoryLimit returns the cluster-wide per-worker materialization cap set
// by WithMemoryLimit (0 means unlimited). The serving layer uses it to
// carve per-query budgets.
func (db *DB) MemoryLimit() int64 { return db.cluster.MaxLocalTuples }

// Spill returns the database-wide spill policy set by WithSpill.
func (db *DB) Spill() SpillPolicy { return db.cluster.SpillPolicy }

// Parallelism returns the intra-worker join parallelism set by
// WithParallelism (0 means automatic).
func (db *DB) Parallelism() int { return db.cluster.Parallelism }

// Code returns the int64 code of a string value, assigning one if new.
// String constants in query rules are encoded with the same dictionary, so
// values loaded through Code match constants written in rules.
func (db *DB) Code(s string) int64 { return db.dict.Code(s) }

// Name decodes a code produced by Code.
func (db *DB) Name(code int64) string { return db.dict.Name(code) }

// Query parses a datalog rule against the loaded relations:
//
//	Triangles(x,y,z) :- E(x,y), E(y,z), E(z,x)
//	Winners(a) :- Name(aw, "The Academy Awards"), Honor(h, aw), Actor(h, a)
//
// Quoted string constants are encoded with the database dictionary.
func (db *DB) Query(rule string) (*Query, error) {
	q, err := core.ParseRule(rule, db.dict)
	if err != nil {
		return nil, err
	}
	if n := q.NumParams(); n > 0 {
		return nil, fmt.Errorf("parajoin: rule has %d unbound parameter(s); use Prepare for parameterized rules", n)
	}
	if err := db.checkAtoms(q); err != nil {
		return nil, err
	}
	return &Query{db: db, q: q}, nil
}

// checkAtoms validates a parsed rule's atoms against the loaded catalog.
func (db *DB) checkAtoms(q *core.Query) error {
	rels := db.snap.Load().rels
	for _, a := range q.Atoms {
		r := rels[a.Relation]
		if r == nil {
			return fmt.Errorf("parajoin: query %s uses unknown relation %q", q.Name, a.Relation)
		}
		if len(a.Terms) != r.Arity() {
			return fmt.Errorf("parajoin: atom %s has %d terms but relation %s has %d columns",
				a, len(a.Terms), a.Relation, r.Arity())
		}
	}
	return nil
}

// Query is a parsed, bound query ready to run.
type Query struct {
	db *DB
	q  *core.Query
}

// String renders the query back in datalog notation.
func (q *Query) String() string { return q.q.String() }

// IsCyclic reports whether the query hypergraph is cyclic — the class of
// queries the HyperCube+Tributary combination is built for.
func (q *Query) IsCyclic() bool { return !core.IsAcyclic(q.q) }

// Run evaluates the query with the Auto strategy.
func (q *Query) Run(ctx context.Context) (*Result, error) {
	return q.RunWith(ctx, Auto)
}

// planFor resolves Auto and plans the query under the chosen strategy
// against the latest published snapshot.
func (q *Query) planFor(s Strategy) (*planner.Result, Strategy, error) {
	planStart := time.Now()
	defer func() { planSeconds.ObserveDuration(time.Since(planStart)) }()
	db := q.db
	snap := db.snap.Load()
	if s == Auto {
		s = chooseStrategy(q.q, snap.catalog, db.workers)
	}
	cfg, err := s.planConfig()
	if err != nil {
		return nil, s, err
	}
	p := &planner.Planner{
		Workers:   db.workers,
		Catalog:   snap.catalog,
		Relations: snap.rels,
		MaxOrders: db.maxOrder,
		Seed:      db.seed,
	}
	res, err := p.Plan(q.q, cfg)
	return res, s, err
}

// RunOptions tunes one execution of a query.
type RunOptions struct {
	// Strategy selects the shuffle × join configuration; "" means Auto.
	Strategy Strategy
	// MaxLocalTuples overrides the database's per-worker materialization
	// budget for this query: 0 inherits the DB-wide limit, a negative value
	// lifts the cap. The serving layer uses it to carve per-query budgets
	// out of the cluster-wide budget.
	MaxLocalTuples int64
	// Spill overrides the database's spill policy for this query;
	// SpillDefault inherits.
	Spill SpillPolicy
	// MaxSpillBytes overrides the database's per-query spilled-bytes cap:
	// 0 inherits, a negative value lifts the cap.
	MaxSpillBytes int64
	// Parallelism overrides the database's intra-worker join parallelism
	// for this query: 0 inherits, a negative value runs the join as one
	// shard, K>0 allows up to K concurrent sub-joins per worker.
	Parallelism int
	// Explain captures the run's EXPLAIN ANALYZE rendering into
	// Stats.Explain: tracing is forced on for the run and the annotated
	// physical plan is built from the events of the actual execution — the
	// query is not re-run. The serving layer uses it to explain slow
	// queries after the fact.
	Explain bool
}

func (o RunOptions) strategy() Strategy {
	if o.Strategy == "" {
		return Auto
	}
	return o.Strategy
}

func (o RunOptions) engineOpts() engine.RunOpts {
	return engine.RunOpts{
		MaxLocalTuples: o.MaxLocalTuples,
		Spill:          o.Spill,
		MaxSpillBytes:  o.MaxSpillBytes,
		Parallelism:    o.Parallelism,
	}
}

// RunWith evaluates the query with an explicit strategy.
func (q *Query) RunWith(ctx context.Context, s Strategy) (*Result, error) {
	return q.RunWithOptions(ctx, RunOptions{Strategy: s})
}

// RunWithOptions evaluates the query with explicit per-run options.
func (q *Query) RunWithOptions(ctx context.Context, opts RunOptions) (*Result, error) {
	a, err := q.AnswerWithOptions(ctx, opts)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: a.Columns, Rows: a.rows(), Stats: a.Stats}, nil
}

// Answer is a query answer as the workers left it: Fragments holds the
// rows in worker order, and concatenated they are Result.Rows. A
// deduplicated projection, a result-cache hit and a distributed run each
// leave one fragment. The rows may be shared with the engine and the
// result cache, so callers must not modify them.
type Answer struct {
	Columns   []string
	Fragments [][]rel.Tuple
	Stats     Stats
}

// Len is the answer's row count.
func (a *Answer) Len() int {
	n := 0
	for _, f := range a.Fragments {
		n += len(f)
	}
	return n
}

// rows gathers the fragments into one row slice: views of the same rows,
// not copies of their values.
func (a *Answer) rows() [][]int64 {
	rows := make([][]int64, 0, a.Len())
	for _, f := range a.Fragments {
		for _, t := range f {
			rows = append(rows, t)
		}
	}
	return rows
}

// AnswerWithOptions evaluates the query like RunWithOptions but leaves the
// answer in its worker fragments, so a caller that streams it (the serving
// layer encodes it straight onto the wire) never gathers it into one slice.
func (q *Query) AnswerWithOptions(ctx context.Context, opts RunOptions) (*Answer, error) {
	db := q.db
	start := time.Now()
	rkey, epoch, useRC := db.resultProbe(q.q, "run", opts)
	if useRC {
		if r := db.resultCache.Get(rkey, epoch); r != nil {
			frag := make([]rel.Tuple, len(r.Rows))
			for i, row := range r.Rows {
				frag[i] = row
			}
			return &Answer{
				Columns:   r.Columns,
				Fragments: [][]rel.Tuple{frag},
				Stats: Stats{
					Strategy:     Strategy(r.Strategy),
					Workers:      db.workers,
					Wall:         time.Since(start),
					ResultCached: true,
				},
			}, nil
		}
	}
	res, s, err := q.planFor(opts.strategy())
	if err != nil {
		return nil, err
	}
	eopts, col := db.explainOpts(opts)

	frags, report, err := db.cluster.RunRoundsFragments(ctx, res.Rounds, eopts)
	if err != nil {
		return nil, err
	}
	a := &Answer{Fragments: make([][]rel.Tuple, 0, len(frags))}
	for _, f := range frags {
		if f == nil {
			continue
		}
		if a.Columns == nil {
			a.Columns = []string(f.Schema.Clone())
		}
		a.Fragments = append(a.Fragments, f.Tuples)
	}
	if !q.q.IsFull() {
		// Set semantics need every row in one sorted slice.
		all := &rel.Relation{Tuples: slices.Concat(a.Fragments...)}
		a.Fragments = [][]rel.Tuple{all.Dedup().Tuples}
	}

	a.Stats = db.statsFrom(s, start, res, report, col)
	if s == HyperCubeTributary || s == HyperCubeHash {
		a.Stats.HyperCubeShares = res.HC.String()
	}
	if len(res.Order) > 0 {
		vars := make([]string, len(res.Order))
		for i, v := range res.Order {
			vars[i] = string(v)
		}
		a.Stats.VariableOrder = vars
	}
	if useRC && db.cluster.DataEpoch() == epoch {
		db.resultCache.Put(rkey, epoch, &cache.Result{
			Strategy: string(s), Columns: a.Columns, Rows: a.rows(),
		})
	}
	return a, nil
}

// Count evaluates the query and returns only the number of answers,
// without materializing them at any single site: each worker counts its
// result fragment (with a distributed dedup pass for projection queries)
// and the counts are summed. This is the mode graphlet-frequency workloads
// want (the paper's §1 motivation).
func (q *Query) Count(ctx context.Context) (int64, *Stats, error) {
	return q.CountWith(ctx, Auto)
}

// CountWith is Count under an explicit strategy.
func (q *Query) CountWith(ctx context.Context, s Strategy) (int64, *Stats, error) {
	return q.CountWithOptions(ctx, RunOptions{Strategy: s})
}

// CountWithOptions is Count with explicit per-run options.
func (q *Query) CountWithOptions(ctx context.Context, opts RunOptions) (int64, *Stats, error) {
	db := q.db
	start := time.Now()
	rkey, epoch, useRC := db.resultProbe(q.q, "count", opts)
	if useRC {
		if r := db.resultCache.Get(rkey, epoch); r != nil {
			return r.Count, &Stats{
				Strategy:     Strategy(r.Strategy),
				Workers:      db.workers,
				Wall:         time.Since(start),
				ResultCached: true,
			}, nil
		}
	}
	res, s, err := q.planFor(opts.strategy())
	if err != nil {
		return 0, nil, err
	}
	head := q.q.HeadVars()
	headCols := make([]string, len(head))
	for i, h := range head {
		headCols[i] = string(h)
	}
	if err := planner.WrapCount(res, q.q.IsFull(), headCols); err != nil {
		return 0, nil, err
	}
	eopts, col := db.explainOpts(opts)

	out, report, err := db.cluster.RunRoundsOpts(ctx, res.Rounds, eopts)
	if err != nil {
		return 0, nil, err
	}
	var total int64
	for _, t := range out.Tuples {
		total += t[0]
	}
	st := db.statsFrom(s, start, res, report, col)
	if useRC && db.cluster.DataEpoch() == epoch {
		db.resultCache.Put(rkey, epoch, &cache.Result{Strategy: string(s), Count: total})
	}
	return total, &st, nil
}

// Result is a materialized query answer plus execution statistics.
type Result struct {
	Columns []string
	Rows    [][]int64
	Stats   Stats
}

// Stats describes one execution: the metrics the paper's evaluation is
// built on.
type Stats struct {
	Strategy        Strategy
	Workers         int
	Wall            time.Duration
	CPU             time.Duration
	TuplesShuffled  int64
	MaxConsumerSkew float64
	// BytesShuffled is the run's exchange bytes sent over sockets: encoded
	// colbatch frames to workers in other processes. It is 0 when every
	// worker is hosted in this process. In distributed execution it
	// aggregates the members' exchange traffic from their merged reports.
	BytesShuffled int64
	// HyperCubeShares describes the share configuration ("[x:4 × y:4 × z:4]")
	// for HyperCube strategies.
	HyperCubeShares string
	// VariableOrder is the Tributary join's global attribute order.
	VariableOrder []string
	// PeakResidentTuples is the largest per-worker in-memory working set
	// the query held at once (reservation high-water mark).
	PeakResidentTuples int64
	// SpilledBytes and SpillSegments describe the query's spill-to-disk
	// activity; both zero when nothing spilled.
	SpilledBytes  int64
	SpillSegments int64
	// JoinTasks counts the sub-range joins run by intra-worker parallel
	// Tributary joins (0 when every join ran serially); JoinStealMax is
	// the most sub-ranges any single pool goroutine claimed — a load-
	// balance measure (close to JoinTasks/K means balanced).
	JoinTasks    int64
	JoinStealMax int64
	// Explain is the run's EXPLAIN ANALYZE rendering, captured from the
	// actual execution when RunOptions.Explain was set (empty otherwise).
	Explain string
	// ResultCached reports that the answer was replayed from the result
	// cache without planning or executing.
	ResultCached bool
	// RemoteFragments is the number of operator fragments the query ran on
	// remote data nodes (0 when the coordinator executed it locally);
	// RemoteMembers names the data nodes that ran them, in worker order.
	RemoteFragments int
	RemoteMembers   []string
}

// statsFrom builds a finished run's Stats: every field the report derives,
// plus the in-flight EXPLAIN ANALYZE rendering when col collected the run's
// events.
func (db *DB) statsFrom(s Strategy, start time.Time, res *planner.Result, report *engine.Report, col *trace.Collector) Stats {
	st := Stats{
		Strategy:        s,
		Workers:         db.workers,
		Wall:            time.Since(start),
		CPU:             report.TotalCPU(),
		TuplesShuffled:  report.TotalTuplesShuffled(),
		MaxConsumerSkew: report.MaxConsumerSkew(),
		BytesShuffled:   report.BytesSent,
		SpilledBytes:    report.SpilledBytes,
		SpillSegments:   report.SpillSegments,
		JoinTasks:       report.JoinTasks,
		JoinStealMax:    report.JoinStealMax,
		RemoteFragments: report.RemoteFragments,
		RemoteMembers:   report.RemoteMembers,
	}
	for _, p := range report.PeakResidentTuples {
		st.PeakResidentTuples = max(st.PeakResidentTuples, p)
	}
	if col != nil {
		st.Explain = explainWithExecution(
			explainWithShares(engine.ExplainAnalyze(res.Rounds, col.Events(), report), res.HC, db.workers),
			report)
	}
	return st
}

// chooseStrategy applies the paper's Table-6 conclusion: when the regular
// plan's intermediate results dwarf its inputs (typical for cyclic
// queries), the HyperCube shuffle with a Tributary join wins; when the
// intermediates stay small (selective acyclic queries), the regular hash
// plan wins. We compare the estimated regular-shuffle traffic against the
// HyperCube plan's replication volume.
func chooseStrategy(q *core.Query, catalog *stats.Catalog, workers int) Strategy {
	cfg, err := shares.Optimize(q, catalog, workers)
	if err != nil {
		return RegularHash
	}
	hcVolume, err := shares.TuplesShuffled(q, catalog, cfg)
	if err != nil {
		return RegularHash
	}
	rsVolume := estimateRegularTraffic(q, catalog)
	// Require a clear margin: when traffic is comparable the paper finds
	// the regular plan faster (small intermediates, short pipelines).
	if rsVolume > 1.5*hcVolume {
		return HyperCubeTributary
	}
	return RegularHash
}

// estimateRegularTraffic estimates the tuples a left-deep regular-shuffle
// plan moves: every input once plus every intermediate result, using the
// textbook equijoin estimate.
func estimateRegularTraffic(q *core.Query, catalog *stats.Catalog) float64 {
	type est struct {
		card     float64
		distinct map[core.Var]float64
	}
	atoms := make([]est, len(q.Atoms))
	total := 0.0
	for i, a := range q.Atoms {
		st := catalog.Get(a.Relation)
		if st == nil {
			return 0
		}
		e := est{card: float64(st.Cardinality), distinct: map[core.Var]float64{}}
		for j, term := range a.Terms {
			if !term.IsVar {
				if d := float64(st.ColumnDistinct[j]); d > 0 {
					e.card /= d
				}
			}
		}
		for _, v := range a.Vars() {
			e.distinct[v] = float64(st.ColumnDistinct[a.VarPositions(v)[0]])
		}
		atoms[i] = e
		total += e.card
	}
	cur := atoms[0]
	for _, next := range atoms[1:] {
		card := cur.card * next.card
		merged := map[core.Var]float64{}
		for v, d := range cur.distinct {
			merged[v] = d
		}
		for v, d := range next.distinct {
			if prev, ok := merged[v]; ok {
				// Shared variable: apply the join selectivity.
				m := prev
				if d > m {
					m = d
				}
				if m > 1 {
					card /= m
				}
				if d < prev {
					merged[v] = d
				}
			} else {
				merged[v] = d
			}
		}
		cur = est{card: card, distinct: merged}
		total += card // the intermediate is reshuffled
	}
	return total
}
