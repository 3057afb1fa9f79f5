// Command parajoin runs one workload query under one (or every) shuffle ×
// join configuration and prints the paper's metrics: wall-clock time, total
// CPU, tuples shuffled per exchange, and skew.
//
// Usage:
//
//	parajoin -query Q1 -config HC_TJ -workers 64
//	parajoin -query Q4 -all
//	parajoin -rule 'Tri(x,y,z) :- Twitter(x,y), Twitter(y,z), Twitter(z,x)' -all
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"parajoin/internal/core"
	"parajoin/internal/dataset"
	"parajoin/internal/debug"
	"parajoin/internal/experiments"
	"parajoin/internal/planner"
	"parajoin/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("parajoin: ")

	var (
		queryName = flag.String("query", "Q1", "workload query Q1..Q8")
		rule      = flag.String("rule", "", "ad-hoc datalog rule over the workload relations (overrides -query)")
		config    = flag.String("config", "HC_TJ", "configuration: RS_HJ, RS_TJ, BR_HJ, BR_TJ, HC_HJ, HC_TJ, SEMIJOIN")
		all       = flag.Bool("all", false, "run every configuration")
		workers   = flag.Int("workers", 64, "cluster size")
		edges     = flag.Int("edges", dataset.DefaultTwitter().Edges, "synthetic graph edges")
		nodes     = flag.Int("nodes", dataset.DefaultTwitter().Nodes, "synthetic graph nodes")
		perfs     = flag.Int("performances", dataset.DefaultKB().Performances, "knowledge-base performances")
		timeout   = flag.Duration("timeout", 5*time.Minute, "per-run timeout")
		memLimit  = flag.Int64("mem-limit", 2_000_000, "per-worker tuple budget (0 = unlimited)")
		verbose   = flag.Bool("v", false, "print per-exchange load balance")
		explain   = flag.Bool("explain", false, "print the physical plan before running")
		traceFile = flag.String("trace", "", "write trace events as JSON Lines to this file")
		debugAddr = flag.String("debug-addr", "", "serve pprof/expvar/trace diagnostics on this address (e.g. :6060)")
	)
	flag.Parse()

	suite := experiments.NewSuite()
	suite.Workers = *workers
	suite.Graph.Edges = *edges
	suite.Graph.Nodes = *nodes
	suite.KB.Performances = *perfs
	suite.Timeout = *timeout
	suite.MemLimitTuples = *memLimit

	var sinks []trace.Sink
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		sink := trace.NewJSONLSink(f)
		defer sink.Close()
		sinks = append(sinks, sink)
	}
	if *debugAddr != "" {
		ring := trace.NewRing(4096)
		sinks = append(sinks, ring)
		addr, err := debug.Serve(*debugAddr, ring)
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		fmt.Printf("debug server on http://%s/debug/\n", addr)
	}
	if len(sinks) > 0 {
		suite.Tracer = trace.New(trace.MultiSink(sinks...))
	}
	defer suite.Close()

	var adhoc *core.Query
	if *rule != "" {
		w := suite.Workload()
		var err error
		adhoc, err = core.ParseRule(*rule, w.KB.Dict)
		if err != nil {
			log.Fatal(err)
		}
		*queryName = adhoc.Name
	}

	if *all {
		if adhoc != nil {
			for _, cfg := range planner.Configs {
				out, err := suite.RunQuery(adhoc, cfg, *workers)
				if err != nil {
					log.Fatal(err)
				}
				printOutcome(*queryName, cfg, out, *verbose, *explain)
			}
			return
		}
		sc, err := suite.SixConfigs(*queryName)
		if err != nil {
			log.Fatal(err)
		}
		sc.Render(os.Stdout)
		return
	}

	cfg, err := parseConfig(*config)
	if err != nil {
		log.Fatal(err)
	}
	var out *experiments.RunOutcome
	if adhoc != nil {
		out, err = suite.RunQuery(adhoc, cfg, *workers)
	} else {
		out, err = suite.RunConfig(*queryName, cfg, *workers)
	}
	if err != nil {
		log.Fatal(err)
	}
	printOutcome(*queryName, cfg, out, *verbose, *explain)
}

func printOutcome(queryName string, cfg planner.PlanConfig, out *experiments.RunOutcome, verbose, explain bool) {
	if explain && out.Plan != nil {
		fmt.Print(planner.Describe(out.Plan))
		fmt.Println()
	}
	if out.Failed {
		fmt.Printf("%s %s: FAIL (%s) after %v\n", queryName, cfg, out.FailWhy, out.Wall)
		return
	}
	fmt.Printf("%s %s: %d results  wall=%v cpu=%v shuffled=%d\n",
		queryName, cfg, out.Results, out.Wall.Round(time.Millisecond),
		out.CPU.Round(time.Millisecond), out.Shuffled)
	if out.Plan != nil && out.Plan.HC.Cells() > 1 {
		fmt.Printf("hypercube configuration: %s\n", out.Plan.HC)
	}
	if len(out.Plan.Order) > 0 {
		fmt.Printf("variable order: %v (estimated cost %.3g)\n", out.Plan.Order, out.Plan.OrderCost)
	}
	if verbose && out.Report != nil {
		fmt.Printf("\n%-34s %14s %14s %14s\n", "shuffle", "tuples sent", "producer skew", "consumer skew")
		for _, e := range out.Report.Exchanges {
			fmt.Printf("%-34s %14d %14.2f %14.2f\n", e.Name, e.TuplesSent(), e.ProducerSkew(), e.ConsumerSkew())
		}
	}
}

func parseConfig(s string) (planner.PlanConfig, error) {
	for _, c := range slices.Concat(planner.Configs, []planner.PlanConfig{planner.SemiJoin}) {
		if strings.EqualFold(s, c.String()) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown configuration %q", s)
}
