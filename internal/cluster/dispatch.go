package cluster

import (
	"context"
	"fmt"
	"log"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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

// Endpoint names one live member and its link, the membership connection
// fragment dispatch sends frag-run over. Only Coordinator.Endpoints makes
// usable ones; a dispatcher refuses an endpoint without a link.
type Endpoint struct {
	Name string
	link *memberConn
}

// Endpoints returns the live members' dispatch endpoints, sorted by name —
// the same order SlotsFor and the engine's worker numbering use, so
// Endpoints()[i] is worker i of any plan dispatched at this membership.
func (c *Coordinator) Endpoints() []Endpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	eps := make([]Endpoint, 0, len(c.members))
	for _, n := range c.liveNames() {
		mc := c.members[n]
		eps = append(eps, Endpoint{Name: n, link: mc})
	}
	return eps
}

// DispatcherFor builds the fragment dispatcher for one committed membership.
// A member that vanished between the commit and this call yields nil: the
// caller keeps coordinator-local execution, and the death is about to
// trigger another OnChange anyway.
func (c *Coordinator) DispatcherFor(members []string, cfg DispatcherConfig) *Dispatcher {
	eps := c.Endpoints()
	byName := make(map[string]Endpoint, len(eps))
	for _, ep := range eps {
		byName[ep.Name] = ep
	}
	eps = eps[:0]
	for _, m := range members {
		ep, ok := byName[m]
		if !ok {
			c.cfg.Logf("cluster: member %q vanished before dispatch setup; keeping coordinator-local execution", m)
			return nil
		}
		eps = append(eps, ep)
	}
	return NewDispatcher(c.store, eps, cfg)
}

// DispatcherConfig tunes a Dispatcher. The zero value gets defaults.
type DispatcherConfig struct {
	// Tracer receives KindNet events for dispatches and results. Nil
	// disables them.
	Tracer *trace.Tracer
	// Logf logs dispatch events; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// runEpochs hands out disjoint exchange-id blocks to every dispatcher in the
// process: a plan of k rounds takes k consecutive epochs. The counter is not
// per Dispatcher because member runtimes outlive dispatchers — a rebuild at
// an unchanged catalog version points a new Dispatcher at the same
// runtimes, whose transports have already released (and now drop frames
// of) every epoch the previous dispatcher used.
var runEpochs atomic.Int64

// Dispatcher pushes operator fragments to the members of one cluster
// generation and merges their result fragments in serial worker order. The
// members built their engine runtimes when they adopted the catalog
// version; a dispatch only names the version and the runtimes' exchange
// addresses. When membership changes, each member retires the old
// generation's runtime as it adopts the new version, which aborts the
// gangs still in flight, and later dispatches are refused retryably. It is
// safe for concurrent use.
type Dispatcher struct {
	store *partstore.Store
	eps   []Endpoint // sorted by name
	cfg   DispatcherConfig
}

// NewDispatcher creates a dispatcher over one generation's endpoints. The
// endpoint list must be the committed membership the catalog version
// describes; the store is consulted for the relation catalog members need to
// instantiate their fragments.
func NewDispatcher(store *partstore.Store, eps []Endpoint, cfg DispatcherConfig) *Dispatcher {
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	sorted := append([]Endpoint(nil), eps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	return &Dispatcher{store: store, eps: sorted, cfg: cfg}
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
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if len(d.eps) == 0 {
		return nil, nil, fragErr("no live members to dispatch to")
	}
	// Every member must have built the generation the plan is for, for this
	// dispatcher's members, or the exchange addresses would name another
	// generation's listeners. A dispatcher that outlived its membership is
	// refused, retryably, until the serving layer replaces it.
	gen := d.store.CatalogVersion()
	members := d.Members()
	addrs := make([]string, len(d.eps))
	for i, ep := range d.eps {
		if ep.link == nil {
			return nil, nil, fmt.Errorf("cluster: endpoint %q has no link; use Coordinator.Endpoints", ep.Name)
		}
		built := ep.link.runtime()
		if built.version != gen || !slices.Equal(built.members, members) {
			ep.link.readopt()
			fragDispatchErrors.Inc()
			return nil, nil, fragErr("member %q built catalog v%d for %v, dispatch wants catalog v%d for %v",
				ep.Name, built.version, built.members, gen, members)
		}
		addrs[i] = built.addr
	}

	opts.Epoch = runEpochs.Add(int64(len(rounds))) - int64(len(rounds)) + 1
	req := msg{Type: msgFragRun, CatalogVersion: gen, Addrs: addrs, Data: blob, RunOpts: &opts}

	distributedQueries.Inc()
	// Fail fast: the first fragment failure cancels its siblings, whose
	// engines may otherwise wait for exchange tuples that will never come —
	// a peer that lost its run sends no more, and a lost connection fails
	// only the transports at its two ends. Canceling the run context sends
	// each sibling's member a frag-cancel.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
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

// runFragment sends one member its frag-run and waits for the result
// fragment. The link's reader decodes each frag-rows chunk as it arrives;
// canceling ctx sends frag-cancel, which aborts the run on the member.
func (d *Dispatcher) runFragment(ctx context.Context, ep Endpoint, req msg) (*fragResult, error) {
	type outcome struct {
		res *fragResult
		err error
	}
	done := make(chan outcome, 1)
	var (
		tuples    []rel.Tuple
		decodeErr error
	)
	id := ep.link.Send(&req, func(reply *msg, err error) {
		var o outcome
		switch {
		case err != nil:
			o.err = err
		case reply.Type == msgFragRows:
			if decodeErr == nil {
				tuples, decodeErr = fragDecode(tuples, reply.Data)
				fragResultBytes.Add(int64(len(reply.Data)))
			}
			return
		case reply.Type != msgFragDone:
			o.err = fragErr("member %q sent unexpected %q mid-stream", ep.Name, reply.Type)
		case reply.Err != "" && reply.Retryable:
			o.err = fragErr("member %q: %s", ep.Name, reply.Err)
		case reply.Err != "":
			o.err = fmt.Errorf("cluster: member %q: %s", ep.Name, reply.Err)
		case decodeErr != nil:
			o.err = fragErr("decoding result chunk from member %q: %v", ep.Name, decodeErr)
		default:
			frag := rel.New("result", reply.Schema...)
			frag.Tuples = tuples
			o.res = &fragResult{rel: frag, report: reply.Report}
			d.emit("frag-result", 1, int64(len(tuples)))
		}
		done <- o
	})
	fragDispatched.Inc()
	d.emit("frag-dispatch", 1, int64(len(req.Data)))
	select {
	case o := <-done:
		return o.res, o.err
	case <-ctx.Done():
		ep.link.Forget(id)
		// Best effort: if the write fails the link is down, and a dropped
		// link cancels every run on the member anyway.
		_ = ep.link.Reserve()(&msg{Type: msgFragCancel, ID: id})
		return nil, ctx.Err()
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
