package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"parajoin/internal/rel"
	"parajoin/internal/spill"
	"parajoin/internal/trace"
)

// ErrClosed is returned by runs started (or still in flight) after the
// cluster was closed.
var ErrClosed = errors.New("engine: cluster is closed")

// ErrSpillBudget is returned when a run's spilled bytes exceed its hard
// disk cap (MaxSpillBytes).
var ErrSpillBudget = spill.ErrDiskBudget

// SpillPolicy decides when a run may seal materialized state to disk.
type SpillPolicy = spill.Policy

// The spill policies, re-exported for callers that configure the engine
// without importing internal/spill.
const (
	// SpillDefault inherits the enclosing scope's policy (run → cluster →
	// SpillOff).
	SpillDefault = spill.Default
	// SpillOff disables spilling: exceeding the budget fails the run with
	// ErrOutOfMemory — the legacy behavior, and still the default.
	SpillOff = spill.Off
	// SpillOnPressure seals spillable state to disk only when a
	// reservation would exceed the budget.
	SpillOnPressure = spill.OnPressure
	// SpillAlways seals every run of SealTuples tuples regardless of
	// pressure — useful for exercising the spill path in tests.
	SpillAlways = spill.Always
)

// ParseSpillPolicy parses "off", "on-pressure", "always", or "" (default).
func ParseSpillPolicy(s string) (SpillPolicy, error) { return spill.ParsePolicy(s) }

// Cluster is a shared-nothing cluster of workers. Each worker owns a set of
// named relation fragments (its private storage); plans run identically on
// every worker (SPMD) and exchange tuples through the Transport.
//
// A Cluster is safe for concurrent use: Load and Run/RunRounds calls may
// overlap arbitrarily. Each run resolves base relations at the moment its
// scans open (relations are immutable once loaded, so a concurrent Load
// swaps whole fragments, never mutates one), and multi-round plans keep
// their intermediate results in run-private storage, so concurrent runs
// never observe each other's temporaries.
type Cluster struct {
	// BatchSize is the tuple-batch granularity of the operator pipeline and
	// the exchanges.
	BatchSize int
	// MaxLocalTuples caps the tuples a single worker may materialize during
	// a run (hash tables, Tributary inputs/outputs, dedup state). Zero means
	// unlimited. When exceeded the run fails with ErrOutOfMemory — the
	// paper's "FAIL" entries for RS_TJ on Q4/Q5. RunRoundsOpts can tighten
	// (or lift) the budget per run.
	MaxLocalTuples int64
	// SpillPolicy decides whether runs may seal materialized state to disk
	// instead of failing at the budget. SpillDefault (the zero value) means
	// SpillOff: budgets hard-fail exactly as before spilling existed.
	SpillPolicy SpillPolicy
	// SpillDir is the base directory for per-run spill directories; ""
	// uses the system temp directory.
	SpillDir string
	// MaxSpillBytes is the hard cap on a single run's spilled bytes (the
	// soft tuple budget degrades to disk; this cap does not). Zero means
	// unlimited; exceeding it fails the run with ErrSpillBudget.
	MaxSpillBytes int64
	// SpillSealTuples is the run length at which SpillAlways seals to
	// disk; 0 takes the spill package's default (32Ki tuples).
	SpillSealTuples int
	// Parallelism is the number of concurrent sub-joins each worker may run
	// inside one Tributary join. 0 (the default) resolves automatically from
	// GOMAXPROCS and the number of hosted workers; 1 runs the join as one
	// shard; K>1 splits the first join attribute's domain into contiguous
	// ranges executed by up to K goroutines, with output concatenated in
	// range order so the rows are bit-identical to the one-shard run's.
	Parallelism int
	// Tracer receives span events for every run on this cluster. Nil (the
	// default) disables tracing at zero cost: operators are not wrapped and
	// no events are built. Set it before running queries.
	Tracer *trace.Tracer
	// Remote, when non-nil, executes whole multi-round plans somewhere
	// other than this cluster's workers: RunRounds/RunRoundsOpts delegate
	// to it instead of running locally (distributed execution — see
	// DESIGN.md, "Distributed execution"). The local workers and their
	// storage stay intact, serving as the catalog and the fallback path.
	// The runner receives each run's budget, spill policy and spill cap
	// resolved against this cluster; Parallelism and SpillDir are not
	// resolved (see RunOpts). Set it before running queries; assigning nil
	// restores local execution.
	Remote RemoteRunner

	workers   int
	hosted    []int
	transport Transport
	// mu guards storage: Load mutates the maps while concurrent runs read
	// them through Fragment.
	mu      sync.RWMutex
	storage []map[string]*rel.Relation
	// epoch numbers runs so each gets a private exchange-id namespace on
	// the shared transport.
	epoch atomic.Int64
	// dataEpoch counts catalog mutations (Load, LoadFragments,
	// LoadReplicated, Drop). Caches key plans and results on it so any
	// data change invalidates them; see DataEpoch.
	dataEpoch atomic.Int64
	// closed flips once; closeCh wakes in-flight runs so they fail with
	// ErrClosed instead of hanging on a closed transport.
	closed    atomic.Bool
	closeOnce sync.Once
	closeCh   chan struct{}
	closeErr  error
	// batches is the free list of batch storage the cluster's runs share.
	batches batchStore
}

// NewCluster creates an n-worker cluster hosting every worker in this
// process: its transport passes batches by reference and opens no socket.
func NewCluster(n int) *Cluster {
	c := NewClusterWithTransport(n, nil)
	c.transport = newTransport(make([]string, n), c.hosted)
	return c
}

// NewClusterWithTransport creates a cluster over a custom transport (for
// example TCPTransport).
func NewClusterWithTransport(n int, t Transport) *Cluster {
	if n < 1 {
		panic(fmt.Sprintf("engine: cluster needs at least one worker, got %d", n))
	}
	hosted := make([]int, n)
	for i := range hosted {
		hosted[i] = i
	}
	c := &Cluster{
		BatchSize: 1024,
		workers:   n,
		hosted:    hosted,
		transport: t,
		storage:   make([]map[string]*rel.Relation, n),
		closeCh:   make(chan struct{}),
	}
	for i := range c.storage {
		c.storage[i] = make(map[string]*rel.Relation)
	}
	return c
}

// NewPartialCluster creates one process's view of an n-worker cluster that
// spans several processes: this process runs only the hosted workers, and
// the transport (normally a TCPTransport hosting the same workers) connects
// it to its peers. Every participating process must execute the same
// sequence of plans — the SPMD contract extended across processes; plans
// built by the planner from identical inputs are deterministic, so peers
// agree on exchange ids, hash seeds, and routing.
func NewPartialCluster(n int, hosted []int, t Transport) *Cluster {
	c := NewClusterWithTransport(n, t)
	c.hosted = append([]int(nil), hosted...)
	return c
}

// Workers returns the number of workers.
func (c *Cluster) Workers() int { return c.workers }

// Transport returns the cluster's transport.
func (c *Cluster) Transport() Transport { return c.transport }

// WrapTransport replaces the cluster's transport with wrap(current) — the
// hook fault injection uses to interpose on every Send/Recv/CloseSend.
// Call it before the first run; the wrapper owns the original's lifecycle
// (Close must forward).
func (c *Cluster) WrapTransport(wrap func(Transport) Transport) {
	c.transport = wrap(c.transport)
}

// Load round-robin-partitions r across the workers under r's name — the
// initial placement used for every base relation in the paper's
// experiments. Safe to call while queries run: a run that already opened
// its scan of the same name keeps the old fragments.
func (c *Cluster) Load(r *rel.Relation) {
	c.LoadFragments(r.Name, r.RoundRobinPartition(c.workers))
}

// LoadFragments stores pre-partitioned fragments (fragment i goes to worker
// i) under the given name.
func (c *Cluster) LoadFragments(name string, frags []*rel.Relation) {
	if len(frags) != c.workers {
		panic(fmt.Sprintf("engine: %d fragments for %d workers", len(frags), c.workers))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dataEpoch.Add(1)
	for w, f := range frags {
		c.storage[w][name] = f
	}
}

// LoadReplicated stores a full copy of r on every worker.
func (c *Cluster) LoadReplicated(r *rel.Relation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dataEpoch.Add(1)
	for w := 0; w < c.workers; w++ {
		c.storage[w][r.Name] = r
	}
}

// Fragment returns worker w's fragment of the named relation, or nil.
func (c *Cluster) Fragment(w int, name string) *rel.Relation {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.storage[w][name]
}

// Stored reassembles the full relation from its fragments, or nil when the
// name is unknown.
func (c *Cluster) Stored(name string) *rel.Relation {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var frags []*rel.Relation
	for w := 0; w < c.workers; w++ {
		f := c.storage[w][name]
		if f == nil {
			return nil
		}
		frags = append(frags, f)
	}
	return rel.Concat(name, frags)
}

// Drop removes the named relation from every worker.
func (c *Cluster) Drop(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dataEpoch.Add(1)
	for w := 0; w < c.workers; w++ {
		delete(c.storage[w], name)
	}
}

// DataEpoch returns the catalog mutation counter: it advances on every
// Load, LoadFragments, LoadReplicated, and Drop, whatever path drove the
// mutation (CSV load, synthetic generation, wire-protocol load). Plan and
// result caches key on it, so a stale epoch can never serve a stale entry.
func (c *Cluster) DataEpoch() int64 { return c.dataEpoch.Load() }

// Close releases the transport. It is idempotent, and safe while runs are
// in flight: those runs are canceled and fail with ErrClosed, and any
// subsequent run returns ErrClosed immediately.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		close(c.closeCh)
		c.closeErr = c.transport.Close()
	})
	return c.closeErr
}

// Closed reports whether Close has been called.
func (c *Cluster) Closed() bool { return c.closed.Load() }
