package cluster

import (
	"context"
	"fmt"
	"log"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"parajoin/internal/colbatch"
	"parajoin/internal/engine"
	"parajoin/internal/partstore"
	"parajoin/internal/rel"
	"parajoin/internal/trace"
)

// Coordinator-side fragment dispatch (DESIGN.md, "Distributed execution").
//
// A Dispatcher implements engine.RemoteRunner over a fixed generation of the
// cluster: the serving layer builds one per committed membership (inside the
// same OnChange → Rebuild hook that swaps the engine) and installs it on the
// coordinator's engine, which from then on forwards whole multi-round plans
// here instead of executing them locally. Every dispatch failure wraps
// engine.ErrTransport, so the server's existing retry budget — the one that
// already absorbs worker-transport faults — also covers member death and
// mid-query resizes: the retry finds a rebuilt engine with a fresh
// Dispatcher for the new generation and re-dispatches in a single round.

// Endpoint names one live member and its transfer-listener address — the
// address fragment dispatch dials for frag-prepare and frag-run exchanges.
type Endpoint struct {
	Name string
	Addr string
}

// Endpoints returns the live members' dispatch endpoints, sorted by name —
// the same order SlotsFor and the engine's worker numbering use, so
// Endpoints()[i] is worker i of any plan dispatched at this membership.
func (c *Coordinator) Endpoints() []Endpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	eps := make([]Endpoint, 0, len(c.members))
	for _, n := range c.liveNames() {
		eps = append(eps, Endpoint{Name: n, Addr: c.members[n].addr})
	}
	return eps
}

// DispatcherConfig tunes a Dispatcher. The zero value gets defaults.
type DispatcherConfig struct {
	// CallTimeout bounds the bounded exchanges (dial, frag-prepare, frame
	// writes). It deliberately does NOT bound the wait for frag-rows /
	// frag-done: queries run as long as they run, and cancellation travels
	// by closing the connection. Default 10s.
	CallTimeout time.Duration
	// Tracer receives KindNet events for dispatches and results. Nil
	// disables them.
	Tracer *trace.Tracer
	// Logf logs dispatch events; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// runEpochs hands out disjoint exchange-id blocks to every dispatcher in the
// process: a plan of k rounds takes k consecutive epochs. The counter is not
// per Dispatcher because member runtimes outlive dispatchers — a rebuild at
// an unchanged catalog version prepares a new Dispatcher against the same
// runtimes, whose transports have already released (and now drop frames
// of) every epoch the previous dispatcher used.
var runEpochs atomic.Int64

// Dispatcher pushes operator fragments to the members of one cluster
// generation and merges their result fragments in serial worker order. It is
// safe for concurrent use; the first RunRounds lazily prepares the members
// (building their per-generation engine runtimes and learning their exchange
// addresses) and later calls reuse that work.
type Dispatcher struct {
	store *partstore.Store
	eps   []Endpoint // sorted by name
	cfg   DispatcherConfig

	mu       sync.Mutex
	prepared bool
	addrs    []string // member i's exchange listener, filled by prepare
	gen      int64    // catalog version the members were prepared at

	// closeCh aborts every in-flight dispatch (and fails future ones) with
	// a retryable error. See Close.
	closeCh   chan struct{}
	closeOnce sync.Once
}

// NewDispatcher creates a dispatcher over one generation's endpoints. The
// endpoint list must be the committed membership the catalog version
// describes; the store is consulted for the relation catalog members need to
// instantiate their fragments.
func NewDispatcher(store *partstore.Store, eps []Endpoint, cfg DispatcherConfig) *Dispatcher {
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	sorted := append([]Endpoint(nil), eps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	return &Dispatcher{store: store, eps: sorted, cfg: cfg, closeCh: make(chan struct{})}
}

// Close aborts every in-flight dispatch and fails all future ones with a
// retryable error. The serving layer closes a generation's dispatcher the
// moment membership changes: a fragment gang that lost a member can never
// complete — the exchange tuples the dead peer held died with it, and a
// survivor blocked receiving them gets no connection error to wake it — so
// the only correct recovery is to abort the gang and let the retry budget
// re-dispatch against the next generation. Closing is also what keeps a
// rebuild's quiesce from waiting out a doomed query's full deadline.
// Idempotent; the engine also calls it (via the io.Closer check in
// Cluster.Close) when the generation's engine is torn down.
func (d *Dispatcher) Close() error {
	d.closeOnce.Do(func() { close(d.closeCh) })
	return nil
}

// Members returns the generation's sorted member names.
func (d *Dispatcher) Members() []string {
	names := make([]string, len(d.eps))
	for i, ep := range d.eps {
		names[i] = ep.Name
	}
	return names
}

// fragErr wraps any dispatch-layer failure as a transport error so the
// serving layer's retry budget treats it like any worker-link fault.
func fragErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", engine.ErrTransport, fmt.Sprintf(format, args...))
}

// prepare builds (or confirms) every member's engine runtime for this
// generation and records their exchange-listener addresses. Idempotent and
// cheap after the first success; a failure leaves the dispatcher unprepared
// so the next query re-attempts.
func (d *Dispatcher) prepare() ([]string, int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.prepared {
		return d.addrs, d.gen, nil
	}
	if len(d.eps) == 0 {
		return nil, 0, fragErr("no live members to dispatch to")
	}
	gen := d.store.CatalogVersion()
	members := d.Members()
	var metas []FragRelMeta
	for _, e := range d.store.Relations() {
		metas = append(metas, FragRelMeta{Name: e.Name, Columns: e.Columns, Slots: e.Slots})
	}
	req := &msg{Type: msgFragPrepare, CatalogVersion: gen, Members: members, Metas: metas}

	addrs := make([]string, len(d.eps))
	errs := make([]error, len(d.eps))
	var wg sync.WaitGroup
	for i, ep := range d.eps {
		wg.Add(1)
		go func(i int, ep Endpoint) {
			defer wg.Done()
			reply, err := transfer(ep.Addr, d.cfg.CallTimeout, req)
			if err != nil {
				errs[i] = fragErr("member %q: %v", ep.Name, err)
				return
			}
			if reply.Type != msgFragReady || reply.Addr == "" {
				errs[i] = fragErr("member %q refused frag-prepare: %s", ep.Name, reply.Err)
				return
			}
			addrs[i] = reply.Addr
		}(i, ep)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			fragDispatchErrors.Inc()
			return nil, 0, err
		}
	}
	d.prepared, d.addrs, d.gen = true, addrs, gen
	d.cfg.Logf("cluster: prepared %d member runtime(s) for catalog v%d", len(addrs), gen)
	return addrs, gen, nil
}

// fragResult is what one member's fragment run produced.
type fragResult struct {
	rel    *rel.Relation
	report *engine.Report
}

// RunRounds implements engine.RemoteRunner: serialize the plan once, push it
// to every member in parallel, stream the result fragments back, and merge
// them in sorted-member (= serial worker) order — which is exactly the order
// a coordinator-local run concatenates its workers' fragments in, so the
// merged relation is byte-identical to local execution.
func (d *Dispatcher) RunRounds(ctx context.Context, rounds []engine.Round, opts engine.RunOpts) (*rel.Relation, *engine.Report, error) {
	blob, err := engine.EncodeRounds(rounds)
	if err != nil {
		return nil, nil, err // a plan the codec rejects is not retryable
	}
	select {
	case <-d.closeCh:
		return nil, nil, fragErr("dispatch refused: generation superseded by a membership change")
	default:
	}
	addrs, gen, err := d.prepare()
	if err != nil {
		return nil, nil, err
	}

	opts.Epoch = runEpochs.Add(int64(len(rounds))) - int64(len(rounds)) + 1
	req := &msg{Type: msgFragRun, CatalogVersion: gen, Addrs: addrs, Data: blob, RunOpts: &opts}

	distributedQueries.Inc()
	// Fail fast: the first fragment failure cancels its siblings, whose
	// engines would otherwise sit out the dead peer's full redial budget
	// waiting for exchange tuples that will never come. The run context
	// cancellation closes each sibling's query connection, which the
	// member's conn watcher turns into an engine cancellation.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	// Close aborts the gang the same way a sibling failure does.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-d.closeCh:
			cancelRun()
		case <-watchDone:
		}
	}()
	var (
		failOnce  sync.Once
		rootCause error
	)
	results := make([]*fragResult, len(d.eps))
	errs := make([]error, len(d.eps))
	var wg sync.WaitGroup
	for i, ep := range d.eps {
		wg.Add(1)
		go func(i int, ep Endpoint) {
			defer wg.Done()
			results[i], errs[i] = d.runFragment(runCtx, ep, req)
			if errs[i] != nil {
				failOnce.Do(func() {
					rootCause = errs[i]
					cancelRun()
				})
			}
		}(i, ep)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	select {
	case <-d.closeCh:
		fragDispatchErrors.Inc()
		return nil, nil, fragErr("dispatch aborted: generation superseded by a membership change")
	default:
	}
	if rootCause != nil {
		fragDispatchErrors.Inc()
		d.cfg.Logf("cluster: fragment dispatch failed: %v", rootCause)
		return nil, nil, rootCause
	}

	frags := make([]*rel.Relation, len(results))
	reports := make([]*engine.Report, len(results))
	for i, res := range results {
		frags[i] = res.rel
		reports[i] = res.report
	}
	out := rel.Concat("result", frags)
	report := engine.MergeDistributedReports(reports)
	report.RemoteFragments = len(d.eps)
	report.RemoteMembers = d.Members()
	d.emit("frag-merge", len(d.eps), int64(len(out.Tuples)))
	return out, report, nil
}

// runFragment pushes one member's frag-run and consumes its reply stream.
// The connection stays open for the query's whole duration and doubles as
// the cancellation channel: closing it (context canceled) aborts the run on
// the member.
func (d *Dispatcher) runFragment(ctx context.Context, ep Endpoint, req *msg) (*fragResult, error) {
	conn, err := net.DialTimeout("tcp", ep.Addr, d.cfg.CallTimeout)
	if err != nil {
		return nil, fragErr("dialing member %q at %s: %v", ep.Name, ep.Addr, err)
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	if err := writeMsg(conn, d.cfg.CallTimeout, req); err != nil {
		return nil, fragErr("sending frag-run to member %q: %v", ep.Name, err)
	}
	fragDispatched.Inc()
	d.emit("frag-dispatch", 1, int64(len(req.Data)))

	var tuples []rel.Tuple
	for {
		// No deadline: the member streams when it streams. A dead member
		// surfaces as a connection error (its process or listener is gone),
		// not a timeout.
		reply, err := readMsg(conn, 0)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fragErr("streaming fragment from member %q: %v", ep.Name, err)
		}
		switch reply.Type {
		case msgFragRows:
			tuples, err = fragDecode(tuples, reply.Data)
			if err != nil {
				return nil, fragErr("decoding result chunk from member %q: %v", ep.Name, err)
			}
			fragResultBytes.Add(int64(len(reply.Data)))
		case msgFragDone:
			if reply.Err != "" {
				if reply.Retryable {
					return nil, fragErr("member %q: %s", ep.Name, reply.Err)
				}
				return nil, fmt.Errorf("cluster: member %q: %s", ep.Name, reply.Err)
			}
			frag := rel.New("result", reply.Schema...)
			frag.Tuples = tuples
			d.emit("frag-result", 1, int64(len(tuples)))
			return &fragResult{rel: frag, report: reply.Report}, nil
		default:
			return nil, fragErr("member %q sent unexpected %q mid-stream", ep.Name, reply.Type)
		}
	}
}

// fragDecode decodes every batch in one frag-rows payload and appends its
// rows to tuples, grown once for the rows the batch headers claim.
func fragDecode(tuples []rel.Tuple, data []byte) ([]rel.Tuple, error) {
	tuples = slices.Grow(tuples, colbatch.RowsHint(data))
	for len(data) > 0 {
		batch, n, err := colbatch.DecodeNext(data)
		if err != nil {
			return nil, err
		}
		tuples = batch.AppendTuples(tuples)
		data = data[n:]
	}
	return tuples, nil
}

// emit sends one KindNet trace event (nil-tracer safe).
func (d *Dispatcher) emit(name string, worker int, n int64) {
	d.cfg.Tracer.Emit(trace.Event{
		Kind: trace.KindNet, Run: -1, Worker: worker, Exchange: -1,
		Name: name, Tuples: n,
	})
}
