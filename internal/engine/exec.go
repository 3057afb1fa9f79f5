package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"parajoin/internal/hypercube"
	"parajoin/internal/metrics"
	"parajoin/internal/rel"
	"parajoin/internal/spill"
	"parajoin/internal/trace"
)

// exec holds the state of one query run.
type exec struct {
	cluster   *Cluster
	transport Transport
	metrics   *Metrics
	tracer    *trace.Tracer
	ctx       context.Context
	cancel    context.CancelCauseFunc
	batchSize int
	// epoch namespaces this run's exchange ids on the shared transport, so
	// consecutive runs on one cluster never touch each other's queues.
	epoch int64

	// temps is the run's private relation namespace (StoreAs results of
	// earlier rounds); scans resolve here before the shared cluster storage.
	temps map[string][]*rel.Relation

	// acct is the run's memory accountant: every operator's materialized
	// state reserves tuples against it, and spillable operators release
	// what they seal to disk.
	acct        *spill.Accountant
	spillPolicy spill.Policy
	spillBase   string // base for the run directory; "" = os.TempDir()
	sealTuples  int    // run length at which policy Always seals; 0 = default

	// parallelism caps concurrent sub-joins per Tributary join (resolved
	// RunOpts → Cluster → default; 1 runs each join as one shard).
	parallelism int

	// prog is the serving layer's live progress record for this query, found
	// on the run context (nil when no serving layer is involved — every
	// method tolerates nil, so hooks update unconditionally).
	prog *metrics.QueryProgress

	// runDir and its run file are created lazily by the first seal and
	// removed when the run ends (any way it ends). spillSegs counts this
	// run's sealed runs.
	dirOnce   sync.Once
	runDir    *spill.Dir
	dirErr    error
	spillSegs atomic.Int64
	spills    atomic.Int64

	// routes holds each HyperCube exchange's worker table, by exchange id.
	routesMu sync.Mutex
	routes   map[int]*hypercube.WorkerRoutes
}

// batchStore is a cluster's free list of batch storage. Whoever gets a
// batch from next() or Recv owns it and, once its rows are copied out, may
// put it here (exec.recycle); routers and operators take the storage of
// the batches they fill from here before they allocate. It outlives a run
// because a run fills most of its batches before any comes back. free[c]
// holds storage of 1<<c values, what batch makes, and the store holds at
// most batchStoreVals values. The store is not charged to the memory
// accountant.
type batchStore struct {
	mu   sync.Mutex
	free [40][][]int64
	vals int
}

// batchStoreVals caps a store at 8 MiB of values: on the bench's
// cyclic_hc_tj a 2 MiB cap ran about 10 % slower and a 32 MiB cap no
// faster.
const batchStoreVals = 1 << 20

// batch returns an empty batch of the given arity with room for rows rows,
// its storage taken from the cluster's batchStore when the store has some
// of the right size.
func (e *exec) batch(arity, rows int) rel.Batch {
	c := bits.Len(uint(max(rows*arity, 1) - 1)) // 1<<c values fit rows rows
	s := &e.cluster.batches
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free[c]); n > 0 {
		v := s.free[c][n-1]
		s.free[c] = s.free[c][:n-1]
		s.vals -= cap(v)
		return rel.BatchOf(arity, 0, v)
	}
	return rel.BatchOf(arity, 0, make([]int64, 0, 1<<c))
}

// recycle puts the storage of an owned batch whose rows are copied out in
// the cluster's batchStore, if batch made it and the store has room.
// Nothing may read the batch after.
func (e *exec) recycle(b rel.Batch) {
	c := bits.Len(uint(cap(b.Vals))) - 1
	s := &e.cluster.batches
	s.mu.Lock()
	if c >= 0 && cap(b.Vals) == 1<<c && s.vals+cap(b.Vals) <= batchStoreVals {
		s.free[c] = append(s.free[c], b.Vals[:0])
		s.vals += cap(b.Vals)
	}
	s.mu.Unlock()
}

// fragment resolves a table name for one worker: run-private temporaries
// first, then the cluster's shared storage.
func (e *exec) fragment(w int, table string) *rel.Relation {
	if frags, ok := e.temps[table]; ok {
		return frags[w]
	}
	return e.cluster.Fragment(w, table)
}

// wireID maps a plan-local exchange id to the transport-level id for this
// run. Plans use small ids (< 1<<20 is plenty); epochs keep runs apart.
func (e *exec) wireID(exchangeID int) int {
	return int(e.epoch)<<20 | exchangeID
}

// charge reserves n tuples of materialized state against a worker's
// budget on behalf of operator op; on failure the error names op as the
// operator that tripped the limit.
func (e *exec) charge(worker int, n int64, op string) error {
	if e.acct.Reserve(worker, n) {
		return nil
	}
	e.acct.Blow(worker, op)
	return e.oomErr(worker)
}

// oomErr is the single ErrOutOfMemory construction site: it reports the
// budget and, when known, the operator that first tripped it.
func (e *exec) oomErr(worker int) error {
	if op, ok := e.acct.Blown(worker); ok && op != "" {
		return fmt.Errorf("%w (worker %d exceeded %d tuples in %s)", ErrOutOfMemory, worker, e.acct.Limit(), op)
	}
	return fmt.Errorf("%w (worker %d exceeded %d tuples)", ErrOutOfMemory, worker, e.acct.Limit())
}

// memErr reports whether the worker's budget was blown at any point.
func (e *exec) memErr(worker int) error {
	if _, ok := e.acct.Blown(worker); ok {
		return e.oomErr(worker)
	}
	return nil
}

// spillErr translates a spill-package error into the engine's vocabulary:
// a budget failure becomes ErrOutOfMemory naming the tripping operator;
// everything else (disk cap, I/O) passes through.
func (e *exec) spillErr(worker int, err error) error {
	if errors.Is(err, spill.ErrBudget) {
		return e.oomErr(worker)
	}
	return err
}

// spillEnabled reports whether this run may seal state to disk.
func (e *exec) spillEnabled() bool {
	return e.spillPolicy == spill.OnPressure || e.spillPolicy == spill.Always
}

// spillConfig builds the Sorter/Buffer configuration for one operator.
// With spilling off (or a zero-arity row shape no segment can hold) the
// Create hook stays nil: the operator never seals, and budget pressure is
// a hard ErrOutOfMemory naming the operator's label.
func (e *exec) spillConfig(worker, arity int, label string) spill.Config {
	cfg := spill.Config{
		Acct:       e.acct,
		Worker:     worker,
		Arity:      arity,
		Policy:     e.spillPolicy,
		SealTuples: e.sealTuples,
		Label:      label,
	}
	if e.spillEnabled() && arity > 0 {
		cfg.Create = e.spillFile
		cfg.OnSpill = func(ev spill.Event) {
			e.spills.Add(1)
			e.spillSegs.Add(1)
			e.prog.AddSpillBytes(ev.Bytes)
			if e.tracer.Enabled() {
				e.tracer.Emit(trace.Event{
					Kind: trace.KindSpill, Run: e.epoch, Worker: worker, Exchange: -1,
					Name: ev.Label, Tuples: ev.Tuples, Bytes: ev.Bytes, Dur: ev.Dur,
				})
			}
		}
	}
	return cfg
}

// spillFile hands every seal of the run the run's spill directory,
// creating the directory and its one file on first use.
func (e *exec) spillFile() (*spill.Dir, error) {
	e.dirOnce.Do(func() {
		e.runDir, e.dirErr = spill.NewDir(e.spillBase)
	})
	if e.dirErr != nil {
		return nil, e.dirErr
	}
	return e.runDir.Create()
}

// cleanupSpill removes the run's spill directory. Called once all worker
// goroutines have finished, however the run ended: every spill stream is
// drained inside its worker, so no reader of the run file is left.
func (e *exec) cleanupSpill() {
	if e.runDir != nil {
		e.runDir.Remove()
	}
}

// compile turns a plan node into a runtime operator for one task. With
// tracing enabled every operator is wrapped in a span shim that counts rows
// and inclusive wall time; ids are assigned in postorder (children before
// parents, compile order), the numbering walkNodes mirrors.
func (e *exec) compile(n Node, t *task) (operator, error) {
	op, err := e.compileNode(n, t)
	if err != nil {
		return nil, err
	}
	id := t.opSeq
	t.opSeq++
	if e.tracer.Enabled() {
		op = &spanOp{in: op, t: t, id: id, label: opLabel(n)}
	}
	return op, nil
}

func (e *exec) compileNode(n Node, t *task) (operator, error) {
	switch v := n.(type) {
	case Scan:
		frag := e.fragment(t.worker, v.Table)
		if frag == nil {
			return nil, fmt.Errorf("engine: worker %d has no fragment of %q", t.worker, v.Table)
		}
		return &scanOp{t: t, table: v.Table, sch: frag.Schema.Clone()}, nil

	case Select:
		in, err := e.compile(v.Input, t)
		if err != nil {
			return nil, err
		}
		sch := in.schema()
		op := &selectOp{in: in, sch: sch}
		for _, f := range v.Filters {
			cf := compiledFilter{op: f.Op, right: -1, c: f.Const}
			if cf.left = sch.IndexOf(f.Left); cf.left < 0 {
				return nil, fmt.Errorf("engine: select column %q not in %v", f.Left, sch)
			}
			if f.RightCol != "" {
				if cf.right = sch.IndexOf(f.RightCol); cf.right < 0 {
					return nil, fmt.Errorf("engine: select column %q not in %v", f.RightCol, sch)
				}
			}
			op.filters = append(op.filters, cf)
		}
		return op, nil

	case Project:
		in, err := e.compile(v.Input, t)
		if err != nil {
			return nil, err
		}
		sch := in.schema()
		cols := make([]int, len(v.Cols))
		out := make(rel.Schema, len(v.Cols))
		for i, c := range v.Cols {
			if cols[i] = sch.IndexOf(c); cols[i] < 0 {
				return nil, fmt.Errorf("engine: project column %q not in %v", c, sch)
			}
			out[i] = c
		}
		if len(v.As) > 0 {
			if len(v.As) != len(v.Cols) {
				return nil, fmt.Errorf("engine: project As has %d names for %d columns", len(v.As), len(v.Cols))
			}
			copy(out, v.As)
		}
		return &projectOp{t: t, in: in, sch: out, cols: cols, dedup: v.Dedup}, nil

	case HashJoin:
		left, err := e.compile(v.Left, t)
		if err != nil {
			return nil, err
		}
		right, err := e.compile(v.Right, t)
		if err != nil {
			return nil, err
		}
		if len(v.LeftCols) != len(v.RightCols) || len(v.LeftCols) == 0 {
			return nil, fmt.Errorf("engine: hash join keys %v vs %v", v.LeftCols, v.RightCols)
		}
		ls, rs := left.schema(), right.schema()
		op := &hashJoinOp{t: t, in: [2]operator{left, right}}
		for _, c := range v.LeftCols {
			i := ls.IndexOf(c)
			if i < 0 {
				return nil, fmt.Errorf("engine: join column %q not in left %v", c, ls)
			}
			op.cols[0] = append(op.cols[0], i)
		}
		drop := make(map[int]bool)
		for _, c := range v.RightCols {
			i := rs.IndexOf(c)
			if i < 0 {
				return nil, fmt.Errorf("engine: join column %q not in right %v", c, rs)
			}
			op.cols[1] = append(op.cols[1], i)
			drop[i] = true
		}
		op.sch = ls.Clone()
		for i, name := range rs {
			if !drop[i] {
				op.sch = append(op.sch, name)
				op.rKeep = append(op.rKeep, i)
			}
		}
		if err := noDuplicateColumns(op.sch); err != nil {
			return nil, err
		}
		return op, nil

	case Tributary:
		// Compile inputs in sorted-alias order so operator ids are
		// deterministic across workers and runs (map order is not).
		aliases := make([]string, 0, len(v.Inputs))
		for alias := range v.Inputs {
			aliases = append(aliases, alias)
		}
		sort.Strings(aliases)
		inputs := make(map[string]operator, len(v.Inputs))
		for _, alias := range aliases {
			op, err := e.compile(v.Inputs[alias], t)
			if err != nil {
				return nil, err
			}
			inputs[alias] = op
		}
		head := v.Query.HeadVars()
		sch := make(rel.Schema, len(head))
		for i, h := range head {
			sch[i] = string(h)
		}
		return &tributaryOp{t: t, q: v.Query, inputs: inputs, order: v.Order, sch: sch}, nil

	case SemiJoin:
		return e.compileSemiJoin(v, t)

	case Count:
		return e.compileCount(v, t)

	case Recv:
		return &recvOp{t: t, exchange: v.Exchange, sch: v.Schema.Clone()}, nil

	default:
		return nil, fmt.Errorf("engine: unknown node type %T", n)
	}
}

func noDuplicateColumns(s rel.Schema) error {
	seen := make(map[string]bool, len(s))
	for _, c := range s {
		if seen[c] {
			return fmt.Errorf("engine: ambiguous column %q in schema %v; rename with Project.As", c, s)
		}
		seen[c] = true
	}
	return nil
}

// runExchange drains the exchange's input tree on one worker and routes
// every tuple to its destinations.
func (e *exec) runExchange(spec *ExchangeSpec, w int) (retErr error) {
	t := &task{ex: e, worker: w, exchange: spec.ID}
	start := time.Now()
	var sent int64
	defer func() {
		e.metrics.addBusy(w, time.Since(start)-t.wait)
		if e.tracer.Enabled() {
			e.tracer.Emit(trace.Event{
				Kind: trace.KindSend, Run: e.epoch, Worker: w, Exchange: spec.ID,
				Name: spec.Name, Tuples: sent, Dur: time.Since(start),
			})
		}
	}()
	// Always announce end-of-stream, even on failure, so consumers blocked
	// on Recv terminate (the run context also cancels them, belt and
	// braces). A failed close is a real failure — consumers would wait for
	// an end-of-stream that never comes — so it fails the run unless the
	// run already failed for a better reason.
	defer func() {
		if err := e.transport.CloseSend(e.ctx, e.wireID(spec.ID), w); err != nil && retErr == nil {
			retErr = err
		}
	}()

	in, err := e.compile(spec.Input, t)
	if err != nil {
		return err
	}
	if err := in.open(); err != nil {
		return err
	}
	defer in.close()

	r, err := e.router(spec, in.schema(), w)
	if err != nil {
		return err
	}
	defer func() { sent = r.sent }()
	for {
		b, err := in.next()
		if err == io.EOF {
			return r.flush()
		}
		if err != nil {
			return err
		}
		if err := r.route(b); err != nil {
			return err
		}
		e.recycle(b) // the router copied its rows out
	}
}

// router is one producer's side of an exchange: it copies every row of an
// input batch into the batches of the row's destinations and sends a batch
// through the transport once it is full, counting every tuple sent (sent
// is the post-replication total, for the producer's trace span).
type router struct {
	e    *exec
	spec *ExchangeSpec
	src  int
	dsts func(t rel.Tuple) []int // the workers a row goes to
	outs []rel.Batch             // each destination's batch being filled
	sent int64
}

// batchStart is the least row capacity a batch that grows (grow) starts
// at.
const batchStart = 64

// grow makes room in *b for one more row of the given arity. An empty
// batch gets storage for start rows; a full one moves to storage of twice
// its rows, at most a full batch, and its old storage is recycled.
func (e *exec) grow(b *rel.Batch, arity, start int) {
	if b.Len() > 0 && len(b.Vals)+arity <= cap(b.Vals) {
		return
	}
	nb := e.batch(arity, min(max(2*b.Len(), start), e.batchSize))
	nb = rel.BatchOf(arity, b.Len(), append(nb.Vals, b.Vals...))
	e.recycle(*b)
	*b = nb
}

// router builds worker src's router for an exchange whose input has schema
// sch.
func (e *exec) router(spec *ExchangeSpec, sch rel.Schema, src int) (*router, error) {
	n := e.cluster.Workers()
	r := &router{e: e, spec: spec, src: src, outs: make([]rel.Batch, n)}
	switch spec.Kind {
	case RouteHash:
		cols := make([]int, len(spec.HashCols))
		for i, c := range spec.HashCols {
			if cols[i] = sch.IndexOf(c); cols[i] < 0 {
				return nil, fmt.Errorf("engine: exchange %d hash column %q not in %v", spec.ID, c, sch)
			}
		}
		one := []int{0}
		r.dsts = func(t rel.Tuple) []int {
			one[0] = int(rel.HashTuple(spec.Seed, t, cols) % uint64(n))
			return one
		}

	case RouteBroadcast:
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		r.dsts = func(rel.Tuple) []int { return all }

	case RouteHyperCube:
		if spec.Grid == nil || len(spec.CellMap) != spec.Grid.Cells() {
			return nil, fmt.Errorf("engine: exchange %d hypercube misconfigured", spec.ID)
		}
		if len(spec.Atom.Terms) != len(sch) {
			return nil, fmt.Errorf("engine: exchange %d atom %s arity %d vs schema %v",
				spec.ID, spec.Atom, len(spec.Atom.Terms), sch)
		}
		routes, err := e.workerRoutes(spec)
		if err != nil {
			return nil, err
		}
		r.dsts = routes.Of

	default:
		return nil, fmt.Errorf("engine: unknown route kind %d", spec.Kind)
	}
	return r, nil
}

// route copies b's rows to their destinations' batches, sending each
// batch that fills. A destination's batch starts with room for twice its
// even share of b, at least batchStart rows, and grows up to a full batch.
func (r *router) route(b rel.Batch) error {
	start := max(2*b.Len()/len(r.outs), batchStart)
	for i := range b.Len() {
		t := b.Row(i)
		for _, dst := range r.dsts(t) {
			r.e.grow(&r.outs[dst], b.Arity, start)
			r.outs[dst].Append(t)
			if r.outs[dst].Len() == r.e.batchSize {
				if err := r.send(dst); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// send hands destination dst's batch to the transport.
func (r *router) send(dst int) error {
	b := r.outs[dst]
	r.outs[dst] = rel.Batch{}
	r.sent += int64(b.Len())
	r.e.metrics.addSent(r.spec.ID, r.src, int64(b.Len()))
	return r.e.transport.Send(r.e.ctx, r.e.wireID(r.spec.ID), r.src, dst, b)
}

// flush sends every destination's partly filled batch.
func (r *router) flush() error {
	for dst, o := range r.outs {
		if o.Len() > 0 {
			if err := r.send(dst); err != nil {
				return err
			}
		}
	}
	return nil
}

// workerRoutes returns a HyperCube exchange's worker table, built by the
// first of its producers to ask and shared by the rest.
func (e *exec) workerRoutes(spec *ExchangeSpec) (*hypercube.WorkerRoutes, error) {
	e.routesMu.Lock()
	defer e.routesMu.Unlock()
	if r, ok := e.routes[spec.ID]; ok {
		return r, nil
	}
	n := e.cluster.Workers()
	for _, w := range spec.CellMap {
		if w < 0 || w >= n {
			return nil, fmt.Errorf("engine: exchange %d maps a cell to worker %d of %d", spec.ID, w, n)
		}
	}
	if e.routes == nil {
		e.routes = make(map[int]*hypercube.WorkerRoutes)
	}
	r := spec.Grid.RouterFor(spec.Atom).WorkerRoutes(spec.CellMap, n)
	e.routes[spec.ID] = r
	return r, nil
}

// Run executes a plan across the cluster's workers and returns the union of
// the per-worker result fragments together with a metrics report.
func (c *Cluster) Run(ctx context.Context, plan *Plan) (*rel.Relation, *Report, error) {
	frags, report, err := c.RunFragments(ctx, plan)
	if err != nil {
		return nil, report, err
	}
	return rel.Concat("result", frags), report, nil
}

// RunFragments is Run, keeping the per-worker result fragments separate.
func (c *Cluster) RunFragments(ctx context.Context, plan *Plan) ([]*rel.Relation, *Report, error) {
	return c.runFragments(ctx, plan, RunOpts{}, nil)
}

func (c *Cluster) runFragments(ctx context.Context, plan *Plan, opts RunOpts, temps map[string][]*rel.Relation) ([]*rel.Relation, *Report, error) {
	if err := plan.Validate(); err != nil {
		return nil, nil, err
	}
	if c.closed.Load() {
		return nil, nil, ErrClosed
	}
	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	// A concurrent Close cancels this run with cause ErrClosed instead of
	// letting it hang on (or race with) the closing transport.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-c.closeCh:
			cancel(ErrClosed)
		case <-watchDone:
		}
	}()

	n := c.Workers()
	// A pinned epoch (distributed execution) overrides the process-local
	// counter: every data node of one query must number its exchanges
	// identically, and the coordinator hands out disjoint blocks so
	// concurrent queries cannot cross-talk on the shared mesh.
	epoch := opts.Epoch
	if epoch <= 0 {
		epoch = c.epoch.Add(1)
	}
	e := &exec{
		cluster:     c,
		transport:   c.transport,
		metrics:     NewMetrics(n, plan.Exchanges),
		tracer:      c.runTracer(opts),
		ctx:         runCtx,
		cancel:      cancel,
		batchSize:   c.BatchSize,
		epoch:       epoch,
		temps:       temps,
		acct:        spill.NewAccountant(n, c.runMemLimit(opts), c.runSpillBytes(opts)),
		spillPolicy: c.runSpillPolicy(opts),
		spillBase:   c.runSpillDir(opts),
		sealTuples:  c.SpillSealTuples,
		parallelism: c.runParallelism(opts),
		prog:        metrics.QueryFrom(ctx),
	}
	// The spill directory outlives every worker goroutine (wg.Wait happens
	// first), so this single deferred removal covers success, error, and
	// cancellation alike.
	defer e.cleanupSpill()
	// The query's mem_tuples reading follows this run's accountant while
	// the run lasts and drops back to 0 when it ends.
	defer e.prog.AttachMem(e.acct.Resident)()
	ts0 := c.transport.TransportStats()
	live.runsStarted.Add(1)
	live.activeRuns.Add(1)
	defer live.activeRuns.Add(-1)
	defer live.runsCompleted.Add(1)
	e.tracer.Emit(trace.Event{Kind: trace.KindRun, Run: e.epoch, Worker: -1, Exchange: -1, Name: "start"})

	frags := make([]*rel.Relation, n)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error

	fail := func(err error) {
		// Secondary cancellation errors are noise; keep the root cause.
		if err == nil || errors.Is(err, context.Canceled) {
			return
		}
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel(err)
	}

	start := time.Now()
	cpu0 := processCPU()
	for _, w := range c.hosted {
		for i := range plan.Exchanges {
			wg.Add(1)
			go func(spec *ExchangeSpec, w int) {
				defer wg.Done()
				if err := e.runExchange(spec, w); err != nil {
					fail(err)
				}
			}(&plan.Exchanges[i], w)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			frag, err := e.runRoot(plan.Root, w)
			if err != nil {
				fail(err)
				return
			}
			frags[w] = frag
		}(w)
	}

	wg.Wait()
	// All local producers and consumers are done: free this epoch's queue
	// state on the transport so a long-running server doesn't accumulate
	// one queue set per query forever.
	queued, bytesReceived, batchesReceived := c.transport.ReleaseEpoch(e.epoch)
	wall := time.Since(start)
	report := e.metrics.report(wall)
	defer observeRound(report)
	report.CPUTime = processCPU() - cpu0
	report.PeakResidentTuples = e.acct.Peaks()
	report.PeakQueuedTuples = queued
	report.SpilledBytes = e.acct.DiskUsed()
	report.SpillSegments = e.spillSegs.Load()
	report.Spills = e.spills.Load()
	// What this run received is counted per epoch as it arrives, so a
	// frame that came before the run started still counts. What it sent
	// is a delta of the transport's counters: on a transport shared by
	// concurrent runs that covers everything in flight, not just this run;
	// parajoin's usage (one run at a time per cluster) makes it exact.
	ts1 := c.transport.TransportStats()
	report.BytesSent = ts1.BytesSent - ts0.BytesSent
	report.BytesReceived = bytesReceived
	report.BatchesSent = ts1.BatchesSent - ts0.BatchesSent
	report.BatchesReceived = batchesReceived
	report.MaxQueueDepth = ts1.MaxQueueDepth
	e.tracer.Emit(trace.Event{
		Kind: trace.KindRun, Run: e.epoch, Worker: -1, Exchange: -1,
		Name: "end", Dur: wall, Bytes: report.BytesSent,
	})
	e.tracer.Flush()

	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	if err == nil {
		// A cancellation that came from Close (cause ErrClosed) is filtered
		// out of firstErr as context.Canceled noise; recover the real cause
		// so a closed-out run never passes for a successful one.
		if cause := context.Cause(runCtx); cause != nil && !errors.Is(cause, context.Canceled) {
			err = cause
		}
	}
	if err != nil {
		return nil, report, err
	}
	if err := ctx.Err(); err != nil {
		return nil, report, err
	}
	return frags, report, nil
}

// runRoot drains the root tree on one worker into a result fragment.
func (e *exec) runRoot(root Node, w int) (*rel.Relation, error) {
	t := &task{ex: e, worker: w, exchange: -1}
	start := time.Now()
	defer func() {
		e.metrics.addBusy(w, time.Since(start)-t.wait)
	}()

	op, err := e.compile(root, t)
	if err != nil {
		return nil, err
	}
	if err := op.open(); err != nil {
		return nil, err
	}
	defer op.close()

	out := &rel.Relation{Name: "result", Schema: op.schema().Clone()}
	// With spilling on, result (and StoreAs) materialization is charged to
	// the budget through a spillable FIFO buffer sealed to disk under
	// pressure, whose read-back is charged to the disk cap, not the tuple
	// budget. With it off the result's rows view the batches as they come,
	// a batch less than half full (a select's, a short join's) copied to
	// storage of its own size first.
	var buf *spill.Buffer
	if e.spillEnabled() {
		buf = spill.NewBuffer(e.spillConfig(w, len(out.Schema), "result"))
	}
	var kept []rel.Batch
	rows := 0
	for {
		b, err := op.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		e.prog.AddTuples(int64(b.Len()))
		if buf == nil {
			if 2*len(b.Vals) < cap(b.Vals) {
				small := rel.BatchOf(b.Arity, b.Len(), slices.Clone(b.Vals))
				e.recycle(b)
				b = small
			}
			kept = append(kept, b)
			rows += b.Len()
			continue
		}
		if err := buf.AddBatch(b); err != nil {
			return nil, e.spillErr(w, err)
		}
		e.recycle(b)
	}
	if buf == nil {
		out.Tuples = make([]rel.Tuple, 0, rows)
		for _, b := range kept {
			for i := range b.Len() {
				out.Tuples = append(out.Tuples, b.Row(i))
			}
		}
		return out, nil
	}
	stream, err := buf.Finish()
	if err != nil {
		return nil, err
	}
	out.Tuples, err = spill.Drain(stream)
	if err != nil {
		return nil, err
	}
	return out, nil
}
