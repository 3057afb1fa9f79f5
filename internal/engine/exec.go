package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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

	// runDir is created lazily by the first seal and removed when the run
	// ends (any way it ends). spillSegs counts this run's sealed segments.
	dirOnce   sync.Once
	runDir    *spill.Dir
	dirErr    error
	spillSegs atomic.Int64
	spills    atomic.Int64
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
		cfg.Create = e.segmentFile
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

// segmentFile hands out segment files inside the run's spill directory,
// creating the directory on first use.
func (e *exec) segmentFile() (*os.File, error) {
	e.dirOnce.Do(func() {
		e.runDir, e.dirErr = spill.NewDir(e.spillBase)
	})
	if e.dirErr != nil {
		return nil, e.dirErr
	}
	return e.runDir.Create()
}

// cleanupSpill removes the run's spill directory. Called once all worker
// goroutines have finished, however the run ended.
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

	route, err := e.router(spec, in.schema(), &sent)
	if err != nil {
		return err
	}
	for {
		b, err := in.next()
		if err == io.EOF {
			// A nil batch asks the router to flush its buffers.
			return route(w, nil)
		}
		if err != nil {
			return err
		}
		if err := route(w, b); err != nil {
			return err
		}
	}
}

// router returns the routing function for an exchange. It buffers per
// destination and flushes batches through the transport, counting every
// tuple sent (sent accumulates the post-replication total for the producer's
// trace span).
func (e *exec) router(spec *ExchangeSpec, sch rel.Schema, sent *int64) (func(src int, b []rel.Tuple) error, error) {
	n := e.cluster.Workers()
	outs := make([][]rel.Tuple, n)
	flush := func(src, dst int, force bool) error {
		if len(outs[dst]) == 0 || (!force && len(outs[dst]) < e.batchSize) {
			return nil
		}
		batch := outs[dst]
		outs[dst] = nil
		*sent += int64(len(batch))
		e.metrics.addSent(spec.ID, src, int64(len(batch)))
		return e.transport.Send(e.ctx, e.wireID(spec.ID), src, dst, batch)
	}
	flushAll := func(src int) error {
		for dst := 0; dst < n; dst++ {
			if err := flush(src, dst, true); err != nil {
				return err
			}
		}
		return nil
	}

	switch spec.Kind {
	case RouteHash:
		cols := make([]int, len(spec.HashCols))
		for i, c := range spec.HashCols {
			if cols[i] = sch.IndexOf(c); cols[i] < 0 {
				return nil, fmt.Errorf("engine: exchange %d hash column %q not in %v", spec.ID, c, sch)
			}
		}
		return func(src int, b []rel.Tuple) error {
			for _, t := range b {
				dst := int(rel.HashTuple(spec.Seed, t, cols) % uint64(n))
				outs[dst] = append(outs[dst], t)
				if err := flush(src, dst, false); err != nil {
					return err
				}
			}
			if b == nil {
				return flushAll(src)
			}
			return nil
		}, nil

	case RouteBroadcast:
		return func(src int, b []rel.Tuple) error {
			for _, t := range b {
				for dst := 0; dst < n; dst++ {
					outs[dst] = append(outs[dst], t)
					if err := flush(src, dst, false); err != nil {
						return err
					}
				}
			}
			if b == nil {
				return flushAll(src)
			}
			return nil
		}, nil

	case RouteHyperCube:
		if spec.Grid == nil || len(spec.CellMap) != spec.Grid.Cells() {
			return nil, fmt.Errorf("engine: exchange %d hypercube misconfigured", spec.ID)
		}
		router := spec.Grid.RouterFor(spec.Atom)
		if len(spec.Atom.Terms) != len(sch) {
			return nil, fmt.Errorf("engine: exchange %d atom %s arity %d vs schema %v",
				spec.ID, spec.Atom, len(spec.Atom.Terms), sch)
		}
		var cells []int
		seen := make([]bool, n)
		return func(src int, b []rel.Tuple) error {
			for _, t := range b {
				cells = router.Destinations(t, cells[:0])
				for _, c := range cells {
					dst := spec.CellMap[c]
					if seen[dst] {
						continue
					}
					seen[dst] = true
					outs[dst] = append(outs[dst], t)
					if err := flush(src, dst, false); err != nil {
						return err
					}
				}
				for _, c := range cells {
					seen[spec.CellMap[c]] = false
				}
			}
			if b == nil {
				return flushAll(src)
			}
			return nil
		}, nil

	default:
		return nil, fmt.Errorf("engine: unknown route kind %d", spec.Kind)
	}
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
	c.transport.ReleaseEpoch(e.epoch)
	wall := time.Since(start)
	report := e.metrics.report(wall)
	defer observeRound(report)
	report.CPUTime = processCPU() - cpu0
	report.PeakResidentTuples = e.acct.Peaks()
	report.SpilledBytes = e.acct.DiskUsed()
	report.SpillSegments = e.spillSegs.Load()
	report.Spills = e.spills.Load()
	// On a transport shared by concurrent runs the byte deltas cover
	// everything in flight, not just this run; parajoin's usage (one run at
	// a time per cluster) makes them exact.
	ts1 := c.transport.TransportStats()
	report.BytesSent = ts1.BytesSent - ts0.BytesSent
	report.BytesReceived = ts1.BytesReceived - ts0.BytesReceived
	report.BatchesSent = ts1.BatchesSent - ts0.BatchesSent
	report.BatchesReceived = ts1.BatchesReceived - ts0.BatchesReceived
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
	if !e.spillEnabled() {
		for {
			b, err := op.next()
			if err == io.EOF {
				return out, nil
			}
			if err != nil {
				return nil, err
			}
			e.prog.AddTuples(int64(len(b)))
			out.Tuples = append(out.Tuples, b...)
		}
	}
	// With spilling on, result (and StoreAs) materialization is charged to
	// the budget through a spillable FIFO buffer and sealed to disk under
	// pressure; the final read-back is modeled as disk-backed state and is
	// accounted against the disk cap, not the tuple budget.
	buf := spill.NewBuffer(e.spillConfig(w, len(out.Schema), "result"))
	for {
		b, err := op.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		e.prog.AddTuples(int64(len(b)))
		for _, t := range b {
			if err := buf.Add(t); err != nil {
				return nil, e.spillErr(w, err)
			}
		}
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
