package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"parajoin"
	"parajoin/internal/cluster"
	"parajoin/internal/colbatch"
	"parajoin/internal/core"
	"parajoin/internal/engine"
	"parajoin/internal/ljoin"
	"parajoin/internal/order"
	"parajoin/internal/partstore"
	"parajoin/internal/planner"
	"parajoin/internal/rel"
	"parajoin/internal/server"
	"parajoin/internal/shares"
	"parajoin/internal/spill"
	"parajoin/internal/stats"
	"parajoin/internal/wire"
)

// The per-layer ledger. A traced run executes every op of the workload
// in-process, twice over: once taken apart — the bench calls each layer's
// public entry point itself, with a span around every call — and once whole,
// through an in-process server and the client package. The difference
// between the whole and the sum of the parts is what the serving layer
// costs; the ratio says how much of the latency the ledger explains.
// Nothing inside parajoin is instrumented: every number is a wall-clock
// reading around a public function or a field of the public engine.Report.

// Span names. All but the first and last are the children of an op that add
// up to its explained latency; "served" is their sibling.
const (
	spanOp     = "op"
	spanStats  = "stats.collect" // the catalog parajoin.DB rebuilds for every query it plans
	spanPlan   = "planner.plan"
	spanRun    = "engine.run"       // Cluster.RunRoundsOpts
	spanDisp   = "cluster.dispatch" // Dispatcher.RunRounds, in spanRun's place on dist_2node
	spanEncode = "colbatch.encode"
	spanFrame  = "wire.frame"
	spanDecode = "client.decode"
	spanServed = "served"
)

// ledgerIters is the fewest iterations a traced run reports medians over.
const ledgerIters = 3

type metricDef struct{ name, unit string }

// layerMetrics lists every per-layer metric a traced run prints, in print
// order. BENCHMARK.json's per_layer block repeats the names; a test keeps the
// two in step.
var layerMetrics = []metricDef{
	{"stats.collect_ms", "ms"},
	{"planner.plan_ms", "ms"},
	{"planner.share_of_pass", "ratio"},
	{"shares.optimize_ms", "ms"},
	{"order.search_ms", "ms"},
	{"engine.run_ms", "ms"},
	{"engine.shuffle_tuples", "count"},
	{"engine.shuffle_bytes", "B"},
	{"engine.max_consumer_skew", "ratio"},
	{"engine.ns_per_shuffled_tuple", "ns"},
	{"engine.peak_resident_tuples", "count"},
	{"ljoin.sort_ms", "ms"},
	{"ljoin.join_ms", "ms"},
	{"ljoin.sorted_tuples", "count"},
	{"ljoin.seeks", "count"},
	{"ljoin.ns_per_seek", "ns"},
	{"colbatch.encode_ns_per_tuple", "ns"},
	{"colbatch.decode_ns_per_tuple", "ns"},
	{"colbatch.bytes_per_tuple", "B"},
	{"spill.sort_ns_per_tuple_mem", "ns"},
	{"spill.sort_ns_per_tuple_sealed", "ns"},
	{"spill.spilled_bytes", "B"},
	{"spill.segments", "count"},
	{"wire.frame_ms", "ms"},
	{"wire.bytes_per_result_row", "B"},
	{"client.decode_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.rejected", "count"},
	{"cluster.dispatch_ms", "ms"},
	{"cluster.local_equiv_ms", "ms"},
	{"cluster.dist_over_local", "ratio"},
	{"cluster.exchange_bytes", "B"},
	{"partstore.load_ms", "ms"},
	{"trace.served_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

var planConfigs = map[string]planner.PlanConfig{
	"hc_tj": planner.HCTJ, "hc_hj": planner.HCHJ,
	"rs_hj": planner.RSHJ, "rs_tj": planner.RSTJ,
	"br_hj": planner.BRHJ, "br_tj": planner.BRTJ,
}

// ledgerOp is an op plus what the taken-apart path needs to run it.
type ledgerOp struct {
	*op
	q    *core.Query
	cfg  planner.PlanConfig
	auto bool
	// rounds is the op's latest plan, kept so the local-equivalent arm runs
	// exactly what was dispatched without paying for planning again.
	rounds []engine.Round
}

// ledgerEnv is the in-process stand-in for a workload's server side.
type ledgerEnv struct {
	w      *workload
	ops    []ledgerOp
	rels   map[string]*rel.Relation // what the planner sees
	plan   planner.Planner
	eng    *engine.Cluster // runs rounds locally: the workload's engine, or dist_2node's local equivalent
	disp   *cluster.Dispatcher
	store  *partstore.Store
	opts   engine.RunOpts
	srv    *server.Server
	one    *session // the sequential sibling: one connection
	all    *session // the workload's real client count, for queue wait
	closer []func()
}

func (e *ledgerEnv) close() {
	for i := len(e.closer) - 1; i >= 0; i-- {
		e.closer[i]()
	}
}

func quiet(string, ...any) {}

// newLedgerEnv mirrors what parajoind builds for the workload: the same
// worker count, parallelism, memory carve-up and spill policy, with the
// serving pieces (server, dispatcher, members) in this process.
func newLedgerEnv(ctx context.Context, w *workload, in *inputs, runDir string) (env *ledgerEnv, err error) {
	e := &ledgerEnv{w: w, rels: in.rels}
	defer func() {
		if err != nil {
			e.close()
		}
	}()

	dbOpts := []parajoin.Option{parajoin.WithParallelism(1), parajoin.WithSpill(parajoin.SpillOnPressure), parajoin.WithSpillDir(runDir)}
	e.opts = engine.RunOpts{Spill: engine.SpillOnPressure, SpillDir: runDir, Parallelism: 1}
	if w.memLimit > 0 {
		dbOpts = append(dbOpts, parajoin.WithMemoryLimit(w.memLimit))
		e.opts.MaxLocalTuples = w.memLimit / daemonSlots // the server's per-query carve-out
	}

	var db *parajoin.DB
	workers := daemonWorkers
	if w.dist {
		if db, err = e.formCluster(ctx, in, dbOpts, runDir); err != nil {
			return nil, err
		}
		workers = distMembers
	} else {
		db = parajoin.Open(daemonWorkers, dbOpts...)
		if err := in.loadInto(db); err != nil {
			db.Close()
			return nil, err
		}
		e.eng = engine.NewCluster(daemonWorkers)
		e.closer = append(e.closer, func() { e.eng.Close() })
		for _, name := range in.relNames() {
			e.eng.Load(in.rels[name])
		}
	}
	e.closer = append(e.closer, func() { db.Close() })

	catalog := stats.NewCatalog()
	for _, r := range e.rels {
		catalog.Add(r)
	}
	// The values parajoin.DB plans with (parajoin.go, planFor).
	e.plan = planner.Planner{Workers: workers, Catalog: catalog, Relations: e.rels, MaxOrders: 5040, Seed: 1, Mode: ljoin.SeekBinary}

	e.srv = server.New(db, server.Config{Logf: quiet})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go e.srv.Serve(ln)
	e.closer = append(e.closer, func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		e.srv.Shutdown(sctx)
	})
	one := *w
	one.clients = 1
	if e.one, err = dialSession(ctx, &one, in.ops, ln.Addr().String()); err != nil {
		return nil, err
	}
	e.closer = append(e.closer, e.one.close)
	if w.clients > 1 {
		if e.all, err = dialSession(ctx, w, in.ops, ln.Addr().String()); err != nil {
			return nil, err
		}
		e.closer = append(e.closer, e.all.close)
	}

	// One served warm-up pass. It lets a freshly formed cluster settle (the
	// server retries the generation mismatches a member answers with while
	// a commit broadcast is still landing; a bare dispatcher call would not)
	// and resolves what "auto" means for each op, so the taken-apart path
	// plans the configuration the server really runs.
	for i := range in.ops {
		o := &in.ops[i]
		lo := ledgerOp{op: o, auto: o.strategy == "auto"}
		if lo.q, err = core.ParseRule(o.bound, nil); err != nil {
			return nil, err
		}
		res, _, err := e.one.runOp(ctx, 0, i)
		if err != nil {
			return nil, fmt.Errorf("warming up %s: %w", o.label, err)
		}
		cfg, ok := planConfigs[res.Stats.Strategy]
		if !ok {
			return nil, fmt.Errorf("%s: no plan configuration for strategy %q", o.label, res.Stats.Strategy)
		}
		lo.cfg = cfg
		e.ops = append(e.ops, lo)
	}
	return e, nil
}

// formCluster stands up dist_2node's server side in-process: a partition
// catalog, a coordinator, distMembers members with their own stores, a
// dispatcher over them, and the local-equivalent engine over the same store
// and member set. It returns the DB the in-process server serves, with the
// dispatcher installed the way parajoind's rebuild installs it.
func (e *ledgerEnv) formCluster(ctx context.Context, in *inputs, dbOpts []parajoin.Option, runDir string) (*parajoin.DB, error) {
	store, err := partstore.Open(filepath.Join(runDir, "ledger-coord"))
	if err != nil {
		return nil, err
	}
	e.store = store
	seedDB := parajoin.Open(daemonWorkers, dbOpts...)
	err = in.loadInto(seedDB)
	if err == nil {
		err = seedDB.PersistTo(store, partSlots)
	}
	seedDB.Close()
	if err != nil {
		return nil, err
	}

	members := memberNames()
	formed := make(chan struct{})
	coord := cluster.NewCoordinator(store, cluster.CoordinatorConfig{
		Logf: quiet,
		OnChange: func(live []string) {
			if len(live) == len(members) {
				select {
				case <-formed:
				default:
					close(formed)
				}
			}
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go coord.Serve(ln)
	e.closer = append(e.closer, func() { coord.Close() })
	mctx, stopMembers := context.WithCancel(context.Background())
	e.closer = append(e.closer, stopMembers)
	for _, name := range members {
		mstore, err := partstore.Open(filepath.Join(runDir, "ledger-"+name))
		if err != nil {
			return nil, err
		}
		m, err := cluster.NewMember(mstore, cluster.MemberConfig{Name: name, CoordinatorAddr: ln.Addr().String(), Logf: quiet})
		if err != nil {
			return nil, err
		}
		go m.Run(mctx)
		e.closer = append(e.closer, func() { m.Close() })
	}
	select {
	case <-formed:
	case <-time.After(30 * time.Second):
		return nil, errors.New("in-process cluster did not form within 30s")
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}

	e.disp = cluster.NewDispatcher(store, coord.Endpoints(), cluster.DispatcherConfig{Logf: quiet})
	db, err := parajoin.OpenFromStore(store, members, dbOpts...)
	if err != nil {
		return nil, err
	}
	db.SetRemoteRunner(e.disp)

	if e.eng, e.rels, err = openLocalEquivalent(store, members); err != nil {
		db.Close()
		return nil, err
	}
	e.closer = append(e.closer, func() { e.eng.Close() })
	return db, nil
}

// openLocalEquivalent loads the store the way parajoin.OpenFromStore does —
// one worker per member, each holding its rendezvous slice — but hands back
// the bare engine, so the bench can time RunRoundsOpts on it directly. This
// is also the work partstore.load_ms times.
func openLocalEquivalent(store *partstore.Store, members []string) (*engine.Cluster, map[string]*rel.Relation, error) {
	eng := engine.NewCluster(len(members))
	rels := map[string]*rel.Relation{}
	for _, entry := range store.Relations() {
		full, err := store.LoadRelation(entry.Name)
		if err != nil {
			eng.Close()
			return nil, nil, err
		}
		rels[entry.Name] = full
		frags := make([]*rel.Relation, len(members))
		for i, m := range members {
			frags[i] = rel.New(entry.Name, entry.Columns...)
			if slots := cluster.SlotsFor(members, entry.Name, entry.Slots, m); len(slots) > 0 {
				if frags[i], err = store.LoadSlots(entry.Name, slots); err != nil {
					eng.Close()
					return nil, nil, err
				}
			}
		}
		eng.LoadFragments(entry.Name, frags)
	}
	return eng, rels, nil
}

// opCounts is what one taken-apart op reads off the engine.Report and the
// byte slices it handled.
type opCounts struct {
	shuffleTuples, shuffleBytes  int64
	skew                         float64
	peak                         int64
	sortMax, joinMax, joinTotal  time.Duration
	sorted, seeks                int64
	spilledBytes, spillSegments  int64
	resultRows, encBytes, frames int64
	engineWall                   time.Duration
}

// apart runs one op layer by layer. With a nil recorder it is the untraced
// arm of the overhead comparison: same calls, no spans.
func (e *ledgerEnv) apart(ctx context.Context, rec *recorder, root int, id string, o *ledgerOp) (opCounts, [][]int64, error) {
	var c opCounts

	// parajoin.DB collects statistics over every loaded relation each time
	// it plans (parajoin.go, planFor), so the taken-apart path does too.
	s := rec.begin(spanStats, id, root)
	p := e.plan
	p.Catalog = stats.NewCatalog()
	for _, r := range e.rels {
		p.Catalog.Add(r)
	}
	rec.end(s)

	s = rec.begin(spanPlan, id, root)
	if o.auto {
		// What parajoin's Auto does before planning, as far as it is public:
		// optimize shares and price the HyperCube shuffle.
		if hc, err := shares.Optimize(o.q, p.Catalog, p.Workers); err == nil {
			shares.TuplesShuffled(o.q, p.Catalog, hc)
		}
	}
	res, err := p.Plan(o.q, o.cfg)
	rec.end(s)
	if err != nil {
		return c, nil, err
	}
	o.rounds = res.Rounds

	var (
		out    *rel.Relation
		report *engine.Report
	)
	if e.disp != nil {
		s = rec.begin(spanDisp, id, root)
		out, report, err = e.disp.RunRounds(ctx, res.Rounds, e.opts)
	} else {
		s = rec.begin(spanRun, id, root)
		out, report, err = e.eng.RunRoundsOpts(ctx, res.Rounds, e.opts)
	}
	rec.end(s)
	if err != nil {
		return c, nil, err
	}
	if !o.q.IsFull() {
		out.Dedup()
	}
	rows := make([][]int64, len(out.Tuples))
	for i, t := range out.Tuples {
		rows[i] = t
	}

	s = rec.begin(spanEncode, id, root)
	enc, err := colbatch.AppendRowsStream(nil, rows)
	rec.end(s)
	if err != nil {
		return c, nil, err
	}

	s = rec.begin(spanFrame, id, root)
	var buf bytes.Buffer
	req := wire.Request{ID: 1, Op: wire.OpRun, Rule: o.rule, Strategy: o.wireStrategy(), Encoding: wire.EncodingColbatch, Proto: wire.ProtoVersion}
	resp := wire.Response{ID: 1, Columns: out.Schema, RowsEnc: enc, Proto: wire.ProtoVersion,
		Stats: &wire.Stats{Strategy: o.strategy, Workers: e.plan.Workers, WallNanos: int64(report.WallTime), TuplesShuffled: report.TotalTuplesShuffled()}}
	var (
		gotReq  wire.Request
		gotResp wire.Response
	)
	err = errors.Join(wire.WriteFrame(&buf, &req), wire.ReadFrame(&buf, &gotReq))
	if err == nil {
		err = wire.WriteFrame(&buf, &resp)
		c.frames = int64(buf.Len())
		if err == nil {
			err = wire.ReadFrame(&buf, &gotResp)
		}
	}
	rec.end(s)
	if err != nil {
		return c, nil, err
	}

	s = rec.begin(spanDecode, id, root)
	decoded, err := colbatch.DecodeRowsStream(gotResp.RowsEnc)
	rec.end(s)
	if err != nil {
		return c, nil, err
	}

	c.shuffleTuples = report.TotalTuplesShuffled()
	c.shuffleBytes = report.BytesSent
	c.skew = report.MaxConsumerSkew()
	c.engineWall = report.WallTime
	for w := range report.SortTime {
		c.sortMax = max(c.sortMax, report.SortTime[w])
		c.joinMax = max(c.joinMax, report.JoinTime[w])
		c.joinTotal += report.JoinTime[w]
		c.sorted += report.Sorted[w]
		c.seeks += report.Seeks[w]
	}
	for _, pk := range report.PeakResidentTuples {
		c.peak = max(c.peak, pk)
	}
	c.spilledBytes = report.SpilledBytes
	c.spillSegments = report.SpillSegments
	c.resultRows = int64(len(rows))
	c.encBytes = int64(len(enc))
	return c, decoded, nil
}

// passLedger is one iteration's numbers, one entry per layer metric.
type passLedger map[string]float64

// ledgerResult is a traced run's outcome.
type ledgerResult struct {
	Workload   string
	Iterations int
	Metrics    map[string]float64 // median over iterations
	Attempted  int
	Failed     int
	First      error
	Spans      int
}

func (r *ledgerResult) fail(err error) {
	r.Failed++
	if r.First == nil {
		r.First = err
	}
}

// runLedger produces a workload's per-layer metrics. tracePath, when not
// empty, receives the spans as JSON once the run is over.
func runLedger(ctx context.Context, w *workload, in *inputs, cfg runConfig, tracePath string) (*ledgerResult, error) {
	runDir, err := newRunDir()
	if err != nil {
		return nil, err
	}
	defer removeAll(runDir)

	env, err := newLedgerEnv(ctx, w, in, runDir)
	if err != nil {
		return nil, fmt.Errorf("%s: in-process set-up: %w", w.name, err)
	}
	defer env.close()

	rec := newRecorder()
	res := &ledgerResult{Workload: w.name}
	var iters []passLedger
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for pass := 0; pass < cfg.minIters || time.Now().Before(deadline); pass++ {
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
		pl, err := env.iteration(ctx, rec, pass, res, runDir)
		if err != nil {
			return nil, err
		}
		iters = append(iters, pl)
	}

	res.Iterations = len(iters)
	res.Spans = len(rec.spans)
	res.Metrics = map[string]float64{}
	for _, def := range layerMetrics {
		xs := make([]float64, len(iters))
		for i, pl := range iters {
			xs[i] = pl[def.name]
		}
		res.Metrics[def.name] = median(xs)
	}
	if tracePath != "" {
		if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
			return nil, err
		}
		if err := rec.writeJSON(tracePath); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}

// iteration runs the workload's pass once per arm and turns the spans and
// counts into one passLedger.
func (e *ledgerEnv) iteration(ctx context.Context, rec *recorder, pass int, res *ledgerResult, runDir string) (passLedger, error) {
	first := len(rec.spans)
	var (
		total       opCounts
		tracedApart time.Duration
		queueWait   time.Duration
	)
	// Traced arm: each op taken apart, then whole, under one root span.
	for i := range e.ops {
		o := &e.ops[i]
		id := fmt.Sprintf("%s/%d/%d", e.w.name, pass, i)
		root := rec.begin(spanOp, id, -1)
		t0 := time.Now()
		c, rows, err := e.apart(ctx, rec, root, id, o)
		tracedApart += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s taken apart: %w", o.label, err)
		}
		res.Attempted++
		if got := checksum(rows); got != o.want {
			res.fail(fmt.Errorf("%s taken apart: %d rows (checksum %016x), reference has %d (%016x)", o.label, got.rows, got.sum, o.want.rows, o.want.sum))
		}
		s := rec.begin(spanServed, id, root)
		served, _, err := e.one.runOp(ctx, 0, i)
		rec.end(s)
		rec.end(root)
		res.Attempted++
		if err == nil {
			err = check(e.w, o.op, served)
		}
		if err != nil {
			res.fail(fmt.Errorf("served in-process: %w", err))
		} else {
			queueWait += served.Stats.QueueWait
		}
		total.add(c)
	}

	// Untraced arm, for the tracing overhead.
	t0 := time.Now()
	for i := range e.ops {
		if _, _, err := e.apart(ctx, nil, -1, "", &e.ops[i]); err != nil {
			return nil, err
		}
	}
	untracedApart := time.Since(t0)

	// The workload's real client count, for what the admission gate adds.
	if e.all != nil {
		queueWait = 0
		for _, o := range e.all.pass(ctx).ops {
			res.Attempted++
			if o.err != nil {
				res.fail(o.err)
			}
			queueWait += o.queueWait
		}
	}
	gate := e.srv.Stats().Gate

	pl := passLedger{}
	byName := map[string]time.Duration{}
	for _, s := range rec.spans[first:] {
		byName[s.Name] += s.dur()
	}
	run := byName[spanRun] + byName[spanDisp]
	parts := byName[spanStats] + byName[spanPlan] + run + byName[spanEncode] + byName[spanFrame] + byName[spanDecode]
	served := byName[spanServed]

	pl["stats.collect_ms"] = ms(byName[spanStats])
	pl["planner.plan_ms"] = ms(byName[spanPlan])
	pl["planner.share_of_pass"] = ratio(float64(byName[spanPlan]), float64(served))
	pl["engine.run_ms"] = ms(byName[spanRun])
	if e.disp != nil {
		pl["engine.run_ms"] = ms(total.engineWall) // the slowest member's engine, as its Report says
	}
	pl["engine.shuffle_tuples"] = float64(total.shuffleTuples)
	pl["engine.shuffle_bytes"] = float64(total.shuffleBytes)
	pl["engine.max_consumer_skew"] = total.skew
	pl["engine.ns_per_shuffled_tuple"] = ratio(float64(run), float64(total.shuffleTuples))
	pl["engine.peak_resident_tuples"] = float64(total.peak)
	pl["ljoin.sort_ms"] = ms(total.sortMax)
	pl["ljoin.join_ms"] = ms(total.joinMax)
	pl["ljoin.sorted_tuples"] = float64(total.sorted)
	pl["ljoin.seeks"] = float64(total.seeks)
	pl["ljoin.ns_per_seek"] = ratio(float64(total.joinTotal), float64(total.seeks))
	pl["spill.spilled_bytes"] = float64(total.spilledBytes)
	pl["spill.segments"] = float64(total.spillSegments)
	pl["wire.frame_ms"] = ms(byName[spanFrame])
	pl["wire.bytes_per_result_row"] = ratio(float64(total.frames), float64(total.resultRows))
	pl["client.decode_ms"] = ms(byName[spanDecode])
	pl["server.overhead_ms"] = ms(served - parts)
	pl["server.queue_wait_ms"] = ms(queueWait)
	pl["server.rejected"] = float64(gate.RejectedQueueFull + gate.RejectedQueueWait)
	pl["trace.served_ms"] = ms(served)
	pl["trace.coverage"] = ratio(float64(parts), float64(served))
	pl["trace.overhead"] = ratio(float64(tracedApart), float64(untracedApart))
	if e.disp != nil {
		pl["cluster.dispatch_ms"] = ms(byName[spanDisp])
		pl["cluster.exchange_bytes"] = float64(total.shuffleBytes)
		local, err := e.localEquivalent(ctx)
		if err != nil {
			return nil, err
		}
		pl["cluster.local_equiv_ms"] = ms(local)
		pl["cluster.dist_over_local"] = ratio(float64(byName[spanDisp]), float64(local))
		t0 := time.Now()
		eng, _, err := openLocalEquivalent(e.store, e.disp.Members())
		if err != nil {
			return nil, err
		}
		pl["partstore.load_ms"] = ms(time.Since(t0))
		eng.Close()
	}
	e.planParts(pl)
	if err := e.codecs(pl, total, byName[spanEncode], byName[spanDecode], runDir); err != nil {
		return nil, err
	}
	return pl, nil
}

func (a *opCounts) add(b opCounts) {
	a.shuffleTuples += b.shuffleTuples
	a.shuffleBytes += b.shuffleBytes
	a.skew = max(a.skew, b.skew)
	a.peak = max(a.peak, b.peak)
	a.sortMax += b.sortMax
	a.joinMax += b.joinMax
	a.joinTotal += b.joinTotal
	a.sorted += b.sorted
	a.seeks += b.seeks
	a.spilledBytes += b.spilledBytes
	a.spillSegments += b.spillSegments
	a.resultRows += b.resultRows
	a.encBytes += b.encBytes
	a.frames += b.frames
	a.engineWall += b.engineWall
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// localEquivalent runs the pass's plans on the engine opened over the same
// store and members without a dispatcher: what dist_2node would cost if the
// coordinator executed it itself.
func (e *ledgerEnv) localEquivalent(ctx context.Context) (time.Duration, error) {
	var total time.Duration
	for i := range e.ops {
		o := &e.ops[i]
		t0 := time.Now()
		if _, _, err := e.eng.RunRoundsOpts(ctx, o.rounds, e.opts); err != nil {
			return 0, fmt.Errorf("%s on the local equivalent: %w", o.label, err)
		}
		total += time.Since(t0)
	}
	return total, nil
}

// planParts times the planner's two searches standalone on each op's query:
// the HyperCube share optimization and the Tributary variable-order search.
// Every plan pays for at most one of each; which ones depends on the
// configuration, so they are reported beside planner.plan_ms, not as parts
// of it.
func (e *ledgerEnv) planParts(pl passLedger) {
	var sharesT, orderT time.Duration
	for i := range e.ops {
		q := e.ops[i].q
		t0 := time.Now()
		shares.Optimize(q, e.plan.Catalog, e.plan.Workers)
		sharesT += time.Since(t0)

		bound := map[string]*rel.Relation{}
		for _, a := range q.Atoms {
			bound[a.Alias] = e.rels[a.Relation]
		}
		t0 = time.Now()
		if est, err := order.NewEstimator(q, bound); err == nil {
			est.Best(e.plan.MaxOrders, e.plan.Seed)
		}
		orderT += time.Since(t0)
	}
	pl["shares.optimize_ms"] = ms(sharesT)
	pl["order.search_ms"] = ms(orderT)
}

// codecs times colbatch and the spill sorter on the workload's own tuples:
// the base relations its plans shuffle plus (for colbatch) as many result
// rows as the pass produced, so the per-tuple figures reflect this
// workload's value distribution and widths.
func (e *ledgerEnv) codecs(pl passLedger, total opCounts, resultEnc, resultDec time.Duration, runDir string) error {
	names := make([]string, 0, len(e.rels))
	for n := range e.rels {
		names = append(names, n)
	}
	sort.Strings(names)

	var (
		encT, decT     time.Duration
		tuples, nbytes int64
		enc            colbatch.Encoder
	)
	for _, n := range names {
		r := e.rels[n]
		for off := 0; off < len(r.Tuples); off += 8192 { // the chunk size fragment results stream at
			chunk := r.Tuples[off:min(off+8192, len(r.Tuples))]
			t0 := time.Now()
			data, err := enc.AppendTuples(nil, chunk)
			encT += time.Since(t0)
			if err != nil {
				return err
			}
			t0 = time.Now()
			b, err := colbatch.Decode(data)
			if err == nil {
				b.Tuples()
			}
			decT += time.Since(t0)
			if err != nil {
				return err
			}
			tuples += int64(len(chunk))
			nbytes += int64(len(data))
		}
	}
	// Result rows were encoded and decoded under spans already; fold them in.
	pl["colbatch.encode_ns_per_tuple"] = ratio(float64(encT+resultEnc), float64(tuples+total.resultRows))
	pl["colbatch.decode_ns_per_tuple"] = ratio(float64(decT+resultDec), float64(tuples+total.resultRows))
	pl["colbatch.bytes_per_tuple"] = ratio(float64(nbytes+total.encBytes), float64(tuples+total.resultRows))

	// The sorter, in memory and forced to seal every eighth of its input.
	biggest := e.rels[names[0]]
	for _, n := range names {
		if len(e.rels[n].Tuples) > len(biggest.Tuples) {
			biggest = e.rels[n]
		}
	}
	for _, arm := range []struct {
		metric string
		policy spill.Policy
	}{{"spill.sort_ns_per_tuple_mem", spill.Off}, {"spill.sort_ns_per_tuple_sealed", spill.Always}} {
		dir, err := spill.NewDir(runDir)
		if err != nil {
			return err
		}
		t0 := time.Now()
		sorter := spill.NewSorter(spill.Config{
			Acct: spill.NewAccountant(1, 0, 0), Arity: biggest.Arity(), Create: dir.Create,
			Policy: arm.policy, SealTuples: max(len(biggest.Tuples)/8, 1), Label: "bench",
		})
		for _, t := range biggest.Tuples {
			if err = sorter.Add(t); err != nil {
				break
			}
		}
		if err == nil {
			var st spill.Stream
			if st, err = sorter.Finish(); err == nil {
				_, err = spill.Drain(st)
			}
		}
		took := time.Since(t0)
		dir.Remove()
		if err != nil {
			return fmt.Errorf("%s: %w", arm.metric, err)
		}
		pl[arm.metric] = ratio(float64(took), float64(len(biggest.Tuples)))
	}
	return nil
}
