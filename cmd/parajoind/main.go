// Command parajoind serves a parajoin engine cluster to many clients over
// TCP. One shared cluster evaluates every client's queries; the admission
// controller bounds how many run at once, queues the overflow FIFO with
// depth and wait limits, and rejects the rest with a typed "overloaded"
// error so clients can back off instead of piling on. Queries carry
// per-query deadlines and memory budgets, and clients can cancel mid-run.
//
//	$ parajoind -workers 8 -addr :4160 -load E=edges.csv
//	parajoind: serving on [::]:4160 (8 workers, 4 concurrent queries)
//
// On SIGINT/SIGTERM the daemon drains: in-flight queries finish and their
// responses flush, new ones are refused, then it exits. A second signal
// aborts the drain.
//
// With -data-dir the daemon is durable: every loaded relation is hash-
// partitioned into an on-disk partition catalog, and a restart restores the
// catalog before serving. On top of that sit the elastic-cluster roles:
//
//	coordinator:  parajoind -data-dir d0 -cluster-listen :4161
//	data node:    parajoind -data-dir d1 -node-name w1 -join host:4161
//
// The coordinator serves queries and tracks membership; data nodes hold
// rendezvous-assigned partition slices, which the coordinator pushes to them
// as members join and leave, and run the operator fragments it sends. Every committed membership change bumps the
// catalog version, rebuilds the serving engine for the new worker count,
// and re-derives HyperCube shares — results stay byte-identical across a
// resize. A replacement data node started with its predecessor's -node-name
// and -data-dir re-owns exactly the slice it held and skips re-receiving
// partitions whose checksums still match.
//
// With -debug-addr it also serves Prometheus metrics (/metrics), the live
// in-flight query table (/debug/queries), pprof profiles, expvar counters
// (including the parajoin_server admission stats), and recent trace events
// over HTTP. With -slow-log every query crossing -slow-log-threshold
// appends one JSONL record with its stats, retry history, and the EXPLAIN
// ANALYZE of the actual run.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"parajoin"
	"parajoin/internal/cluster"
	"parajoin/internal/core"
	"parajoin/internal/debug"
	"parajoin/internal/fault"
	"parajoin/internal/partstore"
	"parajoin/internal/server"
	"parajoin/internal/trace"
	"parajoin/internal/wire"
)

// loadFlags collects repeated -load name=file.csv arguments.
type loadFlags []string

func (l *loadFlags) String() string     { return strings.Join(*l, ",") }
func (l *loadFlags) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	log.SetFlags(0)
	log.SetPrefix("parajoind: ")

	var (
		addr          = flag.String("addr", "127.0.0.1:4160", "listen address")
		workers       = flag.Int("workers", 8, "engine cluster size")
		maxConcurrent = flag.Int("max-concurrent", 4, "queries evaluated simultaneously")
		maxQueue      = flag.Int("max-queue", 0, "queued queries before rejecting (default 4×max-concurrent)")
		maxQueueWait  = flag.Duration("max-queue-wait", 10*time.Second, "longest a query may wait for a slot")
		defTimeout    = flag.Duration("default-timeout", 60*time.Second, "per-query deadline when the client sets none")
		maxTimeout    = flag.Duration("max-timeout", 0, "cap on client-requested deadlines (default 10×default-timeout)")
		memLimit      = flag.Int64("mem-limit", 0, "cluster-wide per-worker tuple budget (0 = unlimited)")
		perQueryMem   = flag.Int64("per-query-mem", 0, "per-query per-worker tuple budget (0 = mem-limit/max-concurrent)")
		spillMode     = flag.String("spill", "on-pressure", "spill-to-disk policy: off, on-pressure, always")
		spillDir      = flag.String("spill-dir", "", "directory for per-query spill files (default: system temp dir)")
		maxSpillBytes = flag.Int64("max-spill-bytes", 0, "hard cap on spilled bytes per query (0 = unlimited)")
		parallelism   = flag.Int("parallelism", 0, "intra-worker join parallelism: 0 auto, 1 serial, K>1 sub-joins per worker")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight queries")
		seed          = flag.Int64("seed", 1, "planner sampling seed")
		debugAddr     = flag.String("debug-addr", "", "serve /metrics, pprof, expvar, and trace diagnostics on this address (e.g. :6060)")
		traceFile     = flag.String("trace", "", "append query + engine trace events to this JSONL file")
		slowLog       = flag.String("slow-log", "", "append a JSONL record (stats, retry history, EXPLAIN ANALYZE) for every slow query to this file")
		slowThreshold = flag.Duration("slow-log-threshold", time.Second, "latency at which a query is logged to -slow-log (0 logs every query)")
		resultTuples  = flag.Int64("result-cache-tuples", 0, "result cache budget in tuples; identical queries over unchanged data replay byte-identically (0 disables)")
		retryBudget   = flag.Int("retry-budget", 2, "automatic re-executions after a retryable transport failure (0 or negative disables)")
		retryBackoff  = flag.Duration("retry-backoff", 50*time.Millisecond, "pause before the first re-execution, doubling per retry")
		faultPlan     = flag.String("fault-plan", "", "deterministic fault-injection plan for chaos testing, e.g. 'seed=1;drop:exchange=0,nth=3' (see internal/fault)")
		dataDir       = flag.String("data-dir", "", "durable partition catalog directory; loads persist here and restarts restore from it")
		partSlots     = flag.Int("part-slots", 0, "hash partitions per persisted relation (0 = store default)")
		clusterListen = flag.String("cluster-listen", "", "coordinator: accept cluster members on this address (requires -data-dir); data node: the host its exchange listeners bind to (the port is ignored)")
		joinAddr      = flag.String("join", "", "run as a data node: join the coordinator at this address (requires -data-dir and -node-name)")
		nodeName      = flag.String("node-name", "", "this data node's stable cluster identity (with -join)")
	)
	var loads loadFlags
	flag.Var(&loads, "load", "preload a relation, name=file.csv (repeatable)")
	flag.Parse()

	// A data node is a durable partition holder, not a query server: it
	// joins the coordinator, stores the partitions and runs the operator
	// fragments it is sent, and leaves cleanly on SIGINT/SIGTERM so the
	// coordinator rebalances at once. -debug-addr works here too (fragment
	// metrics live on the data node); the query-serving flags are ignored
	// in this mode.
	if *joinAddr != "" {
		if *faultPlan != "" {
			log.Fatalf("-fault-plan applies to the query-serving engine; a data node (-join) has no fault point")
		}
		runDataNode(*dataDir, *nodeName, *joinAddr, *clusterListen, *debugAddr)
		return
	}

	// Tracing: a ring for the debug endpoint, a JSONL file for durability,
	// either or both.
	var sinks []trace.Sink
	var ring *trace.Ring
	if *debugAddr != "" {
		ring = trace.NewRing(4096)
		sinks = append(sinks, ring)
	}
	if *traceFile != "" {
		f, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("trace file: %v", err)
		}
		defer f.Close()
		sinks = append(sinks, trace.NewJSONLSink(f))
	}
	var tracer *trace.Tracer
	if len(sinks) > 0 {
		tracer = trace.New(trace.MultiSink(sinks...))
	}

	spillPolicy, err := parajoin.ParseSpillPolicy(*spillMode)
	if err != nil {
		log.Fatalf("-spill: %v", err)
	}

	opts := []parajoin.Option{parajoin.WithSeed(*seed), parajoin.WithSpill(spillPolicy)}
	if *memLimit > 0 {
		opts = append(opts, parajoin.WithMemoryLimit(*memLimit))
	}
	if *spillDir != "" {
		opts = append(opts, parajoin.WithSpillDir(*spillDir))
	}
	if *maxSpillBytes > 0 {
		opts = append(opts, parajoin.WithSpillBudget(*maxSpillBytes))
	}
	if *parallelism != 0 {
		opts = append(opts, parajoin.WithParallelism(*parallelism))
	}
	if *resultTuples > 0 {
		opts = append(opts, parajoin.WithResultCache(*resultTuples))
		log.Printf("result cache: %d tuple budget", *resultTuples)
	}
	if tracer != nil {
		opts = append(opts, parajoin.WithTracer(tracer))
	}
	if *faultPlan != "" {
		plan, err := fault.ParsePlan(*faultPlan)
		if err != nil {
			log.Fatalf("-fault-plan: %v", err)
		}
		opts = append(opts, parajoin.WithFaultPlan(plan))
		log.Printf("chaos: injecting faults per plan %s", plan)
	}
	var store *partstore.Store
	if *dataDir != "" {
		var err error
		store, err = partstore.Open(*dataDir)
		if err != nil {
			log.Fatalf("-data-dir %s: %v", *dataDir, err)
		}
	}
	if *clusterListen != "" && store == nil {
		log.Fatalf("-cluster-listen requires -data-dir (the coordinator owns the authoritative partition catalog)")
	}

	var db *parajoin.DB
	if store != nil && len(store.Relations()) > 0 {
		var err error
		db, err = parajoin.OpenFromStore(store, standaloneMembers(*workers), opts...)
		if err != nil {
			log.Fatalf("restore from %s: %v", *dataDir, err)
		}
		log.Printf("restored %d relations from %s (catalog v%d)",
			len(db.Relations()), *dataDir, store.CatalogVersion())
	} else {
		db = parajoin.Open(*workers, opts...)
	}
	defer db.Close()

	for _, spec := range loads {
		name, file, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("-load %q: want name=file.csv", spec)
		}
		start := time.Now()
		if err := db.LoadCSV(name, file); err != nil {
			log.Fatalf("load %s: %v", name, err)
		}
		log.Printf("loaded %s from %s: %d rows in %v",
			name, file, db.Cardinality(name), time.Since(start).Round(time.Millisecond))
	}
	if store != nil && len(loads) > 0 {
		if err := db.PersistTo(store, *partSlots); err != nil {
			log.Fatalf("persist to %s: %v", *dataDir, err)
		}
		log.Printf("persisted %d relations to %s", len(db.Relations()), *dataDir)
	}

	if *debugAddr != "" {
		got, err := debug.Serve(*debugAddr, ring)
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		log.Printf("debug endpoints on http://%s/debug/", got)
	}

	var slowLogFile *os.File
	if *slowLog != "" {
		var err error
		slowLogFile, err = os.OpenFile(*slowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("slow log: %v", err)
		}
		defer slowLogFile.Close()
		log.Printf("slow-query log: %s (threshold %v)", *slowLog, *slowThreshold)
	}

	// Config's zero value means "server default"; the flag's 0 means "off".
	budget := *retryBudget
	if budget <= 0 {
		budget = -1
	}
	cfg := server.Config{
		MaxConcurrent:     *maxConcurrent,
		MaxQueue:          *maxQueue,
		MaxQueueWait:      *maxQueueWait,
		DefaultTimeout:    *defTimeout,
		MaxTimeout:        *maxTimeout,
		PerQueryMemTuples: *perQueryMem,
		Spill:             spillPolicy,
		Tracer:            tracer,
		RetryBudget:       budget,
		RetryBackoff:      *retryBackoff,
	}
	if slowLogFile != nil {
		cfg.SlowQueryLog = slowLogFile
		cfg.SlowQueryThreshold = *slowThreshold
	}
	var (
		srv   *server.Server
		coord *cluster.Coordinator
	)
	if store != nil {
		cfg.OnLoad = func(name string) {
			if err := srv.DB().PersistTo(store, *partSlots); err != nil {
				log.Printf("persist after loading %s: %v", name, err)
				return
			}
			if coord != nil {
				if err := coord.Sync(); err != nil {
					log.Printf("cluster: sync after loading %s: %v", name, err)
				}
			}
		}
	}
	srv = server.New(db, cfg)

	if *clusterListen != "" {
		coord = cluster.NewCoordinator(store, cluster.CoordinatorConfig{
			Tracer: tracer,
			Logf:   log.Printf,
			OnChange: func(members []string) {
				rebuildForMembers(srv, store, coord, opts, members, tracer)
			},
		})
		defer coord.Close()
		cln, err := net.Listen("tcp", *clusterListen)
		if err != nil {
			log.Fatalf("cluster listen %s: %v", *clusterListen, err)
		}
		go coord.Serve(cln)
		srv.SetClusterInfo(func() *wire.ClusterInfo {
			info := coord.Status()
			info.Workers = srv.DB().Workers()
			return info
		})
		log.Printf("cluster: coordinating on %s (catalog v%d)",
			cln.Addr(), store.CatalogVersion())
	}

	// Graceful drain on SIGINT/SIGTERM; a second signal aborts it.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()

	// ListenAndServe binds asynchronously; poll briefly so the startup log
	// line carries the resolved address (relevant with ":0").
	for i := 0; i < 100 && srv.Addr() == ""; i++ {
		select {
		case err := <-errc:
			log.Fatalf("listen %s: %v", *addr, err)
		case <-time.After(time.Millisecond):
		}
	}
	log.Printf("serving on %s (%d workers, %d concurrent queries)",
		srv.Addr(), *workers, *maxConcurrent)

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case sig := <-sigs:
		log.Printf("%s: draining (ctrl-c again to abort)", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		<-sigs
		log.Print("second signal: aborting drain")
		cancel()
	}()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain: %v", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "parajoind: bye")
}

// standaloneMembers synthesizes stable pseudo-member names so a partition
// catalog can be opened at any worker count outside a live cluster:
// rendezvous placement only needs a name set, and query results are
// partitioning-independent.
func standaloneMembers(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("w%03d", i)
	}
	return names
}

// rebuildForMembers swaps the serving engine for a new member set: the
// partition catalog is re-sliced by rendezvous placement, one worker per
// live member, while in-flight queries drain and retries re-resolve against
// the new catalog. The serving log line names the execution mode the new
// generation actually runs. When an earlier query's rule is known, the
// HyperCube share re-derivation for the new worker count is logged
// alongside.
func rebuildForMembers(srv *server.Server, store *partstore.Store, coord *cluster.Coordinator,
	opts []parajoin.Option, members []string, tracer *trace.Tracer) {
	if len(members) == 0 {
		log.Print("cluster: no live members; keeping the current engine")
		return
	}
	before := srv.DB().Workers()
	mode := "coordinator-local"
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := srv.Rebuild(ctx, func(*parajoin.DB) (*parajoin.DB, error) {
		ndb, err := parajoin.OpenFromStore(store, members, opts...)
		if err != nil {
			return nil, err
		}
		// Install the generation's fragment dispatcher before the swap makes
		// the engine visible, so no query ever runs on a half-wired DB. A
		// nil dispatcher (a member vanished between commit and here) keeps
		// execution coordinator-local — the always-correct fallback.
		if d := coord.DispatcherFor(members, cluster.DispatcherConfig{Tracer: tracer, Logf: log.Printf}); d != nil {
			ndb.SetRemoteRunner(d)
			mode = "distributed"
		}
		return ndb, nil
	})
	if err != nil {
		log.Printf("cluster: rebuild for members %v: %v", members, err)
		return
	}
	after := srv.DB().Workers()
	log.Printf("cluster: serving %d workers for members %v (catalog v%d, %s execution)",
		after, members, store.CatalogVersion(), mode)
	if rule := srv.LastRule(); rule != "" && before != after {
		if q, err := core.ParseRule(rule, nil); err == nil {
			if rz, err := cluster.ReDerive(q, cluster.CatalogFromStore(store), before, after); err == nil {
				log.Printf("cluster: %s", rz)
			}
		}
	}
}

// runDataNode is the -join mode: a durable partition holder that runs the
// operator fragments the coordinator sends — no query engine of its own.
func runDataNode(dataDir, name, coordAddr, listenAddr, debugAddr string) {
	if dataDir == "" || name == "" {
		log.Fatalf("-join requires -data-dir and -node-name")
	}
	store, err := partstore.Open(dataDir)
	if err != nil {
		log.Fatalf("-data-dir %s: %v", dataDir, err)
	}
	if debugAddr != "" {
		got, err := debug.Serve(debugAddr, nil)
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		log.Printf("debug endpoints on http://%s/debug/", got)
	}
	m, err := cluster.NewMember(store, cluster.MemberConfig{
		Name:            name,
		CoordinatorAddr: coordAddr,
		ListenAddr:      listenAddr,
		Logf:            log.Printf,
	})
	if err != nil {
		log.Fatalf("%v", err)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := m.Run(ctx); err != nil {
		log.Fatalf("data node: %v", err)
	}
	m.Close()
	fmt.Fprintln(os.Stderr, "parajoind: bye")
}
