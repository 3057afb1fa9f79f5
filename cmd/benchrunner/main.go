// Command benchrunner regenerates every table and figure of the paper's
// evaluation and prints them in the paper's layout. Select experiments with
// -exp (comma-separated), or run everything.
//
//	benchrunner -exp figure3,figure11
//	benchrunner -workers 64 > results.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"parajoin/internal/debug"
	"parajoin/internal/engine"
	"parajoin/internal/experiments"
	"parajoin/internal/fault"
	"parajoin/internal/metrics"
	"parajoin/internal/planner"
	"parajoin/internal/trace"
)

type experiment struct {
	name string
	desc string
	run  func(*experiments.Suite) error
}

func renderErr(err error, render func()) error {
	if err != nil {
		return err
	}
	render()
	return nil
}

var catalog = []experiment{
	{"table1", "Freebase-like relation sizes", func(s *experiments.Suite) error {
		s.Table1().Render(os.Stdout)
		return nil
	}},
	{"table2", "Q1 load balance, regular shuffles", func(s *experiments.Suite) error {
		t, err := s.Table2()
		return renderErr(err, func() { t.Render(os.Stdout) })
	}},
	{"table3", "Q1 load balance, HyperCube shuffles", func(s *experiments.Suite) error {
		t, err := s.Table3()
		return renderErr(err, func() { t.Render(os.Stdout) })
	}},
	{"table4", "Q1 load balance, broadcast", func(s *experiments.Suite) error {
		t, err := s.Table4()
		return renderErr(err, func() { t.Render(os.Stdout) })
	}},
	{"table5", "Q1 operator time in local joins", func(s *experiments.Suite) error {
		t, err := s.Table5()
		return renderErr(err, func() { t.Render(os.Stdout) })
	}},
	{"figure3", "Q1 six configurations", sixConfigs("Q1")},
	{"figure4", "Q2 six configurations", sixConfigs("Q2")},
	{"figure6", "Q3 six configurations", sixConfigs("Q3")},
	{"figure8", "Q4 worker utilization HC_TJ vs BR_TJ", func(s *experiments.Suite) error {
		u, err := s.Utilization("Q4", planner.HCTJ, planner.BRTJ)
		return renderErr(err, func() { u.Render(os.Stdout) })
	}},
	{"figure9", "Q4 six configurations", sixConfigs("Q4")},
	{"figure10", "Q1 scalability 2..64 workers", func(s *experiments.Suite) error {
		sc, err := s.Scalability("Q1")
		return renderErr(err, func() { sc.Render(os.Stdout) })
	}},
	{"figure10b", "intra-worker parallel-join speedup, K=1,2,4,8", func(s *experiments.Suite) error {
		st, err := s.Speedup(s.Workers, []int{1, 2, 4, 8})
		return renderErr(err, func() { st.Render(os.Stdout) })
	}},
	{"figure11", "share-configuration algorithms, N=64,63,65", func(s *experiments.Suite) error {
		f, err := s.Figure11([]string{"Q1", "Q2", "Q3", "Q4"}, nil)
		return renderErr(err, func() { f.Render(os.Stdout) })
	}},
	{"figure12", "variable-order cost model scatter", func(s *experiments.Suite) error {
		for _, q := range []string{"Q3", "Q4", "Q7", "Q8"} {
			st, err := s.OrderStudy(q, 20, 30*time.Second)
			if err != nil {
				return err
			}
			st.Render(os.Stdout)
			fmt.Println()
		}
		return nil
	}},
	{"figure13", "Q5 six configurations", sixConfigs("Q5")},
	{"figure14", "Q6 six configurations", sixConfigs("Q6")},
	{"figure15", "Q7 six configurations", sixConfigs("Q7")},
	{"figure17", "Q8 six configurations", sixConfigs("Q8")},
	{"table6", "summary across Q1..Q8", func(s *experiments.Suite) error {
		t, err := s.Table6()
		return renderErr(err, func() { t.Render(os.Stdout) })
	}},
	{"table7", "random vs best variable order", func(s *experiments.Suite) error {
		fmt.Println("Table 7: query runtime with random attribute orders vs the cost model's best")
		fmt.Printf("%-4s %20s %20s\n", "q", "avg random", "best order")
		for _, q := range []string{"Q3", "Q4", "Q7", "Q8"} {
			st, err := s.OrderStudy(q, 20, 30*time.Second)
			if err != nil {
				return err
			}
			fmt.Printf("%-4s %20v %20v\n", q,
				st.AvgRandom.Round(time.Microsecond), st.Best.Runtime.Round(time.Microsecond))
		}
		return nil
	}},
	{"table8", "Q7 relation sizes after selection pushdown", func(s *experiments.Suite) error {
		s.Table8().Render(os.Stdout)
		return nil
	}},
	{"semijoin", "semijoin plans vs RS and HC (§3.6)", func(s *experiments.Suite) error {
		st, err := s.SemijoinStudy("Q3", "Q7")
		return renderErr(err, func() { st.Render(os.Stdout) })
	}},
	{"distscale", "Q1 six configurations pushed to 1/2/3 data nodes vs coordinator-local", runDistScale},
	{"skewstudy", "heavy-hitter-aware shuffle vs plain (footnote 2)", func(s *experiments.Suite) error {
		st, err := s.SkewStudy("Q1", "Q5")
		return renderErr(err, func() { st.Render(os.Stdout) })
	}},
}

func sixConfigs(q string) func(*experiments.Suite) error {
	return func(s *experiments.Suite) error {
		sc, err := s.SixConfigs(q)
		return renderErr(err, func() { sc.Render(os.Stdout) })
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchrunner: ")
	var (
		expList   = flag.String("exp", "", "comma-separated experiment names (default: all); see -list")
		list      = flag.Bool("list", false, "list experiments and exit")
		workers   = flag.Int("workers", 64, "cluster size")
		edges     = flag.Int("edges", 0, "override synthetic graph edges")
		timeout   = flag.Duration("timeout", 5*time.Minute, "per-run timeout")
		memLimit  = flag.Int64("mem-limit", 0, "per-worker tuple budget (0 = suite default)")
		spillMode = flag.String("spill", "", "spill-to-disk policy: off, on-pressure, always (default: off)")
		parallel  = flag.Int("parallelism", 0, "intra-worker join parallelism: 0 auto, 1 serial, K>1 sub-joins per worker")
		columnar  = flag.Bool("columnar", true, "exchange batches as dictionary-encoded columnar frames; false restores the flat 8-bytes-per-value accounting")
		jsonPath  = flag.String("json", "", "write every run's full report as JSON to this file (- for stdout)")
		debugAddr = flag.String("debug-addr", "", "serve pprof/expvar/trace diagnostics on this address (e.g. :6060)")
		chaos     = flag.String("chaos", "", "deterministic fault-injection plan, e.g. 'seed=1;stall:prob=0.01,delay=5ms' (see internal/fault)")

		concurrency   = flag.Int("concurrency", 0, "serve the workload and replay it with this many parallel clients (skips -exp)")
		rounds        = flag.Int("rounds", 3, "with -concurrency: workload replays per client")
		maxConcurrent = flag.Int("max-concurrent", 4, "with -concurrency: server query slots")

		replayZipf    = flag.Float64("replay-zipf", 0, "replay a Zipf(s)-skewed prepared-statement workload with and without the result cache, s > 1 (skips -exp)")
		replayQueries = flag.Int("replay-queries", 400, "with -replay-zipf: executions per cache arm")
		replayNodes   = flag.Int("replay-nodes", 1200, "with -replay-zipf: synthetic graph node count (arguments draw from this universe)")
	)
	flag.Parse()

	if *list {
		for _, e := range catalog {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		return
	}

	suite := experiments.NewSuite()
	suite.Workers = *workers
	suite.Timeout = *timeout
	if *edges > 0 {
		suite.Graph.Edges = *edges
	}
	if *memLimit != 0 {
		suite.MemLimitTuples = *memLimit
	}
	if *spillMode != "" {
		p, err := engine.ParseSpillPolicy(*spillMode)
		if err != nil {
			log.Fatalf("-spill: %v", err)
		}
		suite.Spill = p
	}
	suite.Parallelism = *parallel
	suite.Columnar = *columnar
	if *chaos != "" {
		plan, err := fault.ParsePlan(*chaos)
		if err != nil {
			log.Fatalf("-chaos: %v", err)
		}
		suite.FaultPlan = plan
		fmt.Printf("chaos: injecting faults per plan %s\n", plan)
	}
	suite.Record = *jsonPath != ""
	if *debugAddr != "" {
		ring := trace.NewRing(4096)
		suite.Tracer = trace.New(ring)
		addr, err := debug.Serve(*debugAddr, ring)
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		fmt.Printf("debug server on http://%s/debug/\n", addr)
	}
	defer suite.Close()

	if *replayZipf > 0 {
		edgeCount := 20000
		if *edges > 0 {
			edgeCount = *edges
		}
		rep, err := runReplay(replayConfig{
			Zipf:    *replayZipf,
			Queries: *replayQueries,
			Workers: *workers,
			Edges:   edgeCount,
			Nodes:   *replayNodes,
			Timeout: *timeout,
		})
		if err != nil {
			log.Fatalf("replay: %v", err)
		}
		rep.Render(os.Stdout)
		if *jsonPath != "" {
			if err := writeReplayJSON(*jsonPath, rep); err != nil {
				log.Fatalf("writing %s: %v", *jsonPath, err)
			}
		}
		return
	}

	if *concurrency > 0 {
		report, err := runConcurrency(suite, *workers, *concurrency, *rounds, *maxConcurrent, *timeout)
		if err != nil {
			log.Fatalf("concurrency replay: %v", err)
		}
		report.Render(os.Stdout)
		if *jsonPath != "" {
			if err := writeConcurrencyJSON(*jsonPath, report); err != nil {
				log.Fatalf("writing %s: %v", *jsonPath, err)
			}
		}
		return
	}

	want := map[string]bool{}
	for _, n := range strings.Split(*expList, ",") {
		if n = strings.TrimSpace(n); n != "" {
			want[strings.ToLower(n)] = true
		}
	}

	start := time.Now()
	for _, e := range catalog {
		if len(want) > 0 && !want[e.name] {
			continue
		}
		fmt.Printf("== %s: %s ==\n", e.name, e.desc)
		t0 := time.Now()
		if err := e.run(suite); err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
		fmt.Printf("(%s took %v)\n\n", e.name, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("all experiments done in %v\n", time.Since(start).Round(time.Second))

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, suite.Outcomes()); err != nil {
			log.Fatalf("writing %s: %v", *jsonPath, err)
		}
	}
}

// latencySummary is the percentile digest of the recorded runs' wall times,
// distilled through the metrics package's histogram (the same bucket scheme
// the /metrics endpoint scrapes). Durations marshal as nanoseconds.
type latencySummary struct {
	// Count is the number of completed runs the percentiles summarize.
	Count int64
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// benchReport is the -json output shape: the raw per-run outcomes plus the
// latency digest benchcheck validates. A -replay-zipf run instead carries
// its report under Replay (and no outcomes).
type benchReport struct {
	Outcomes []*experiments.RecordedOutcome
	Latency  latencySummary
	Replay   *ReplayReport `json:",omitempty"`
}

func writeReplayJSON(path string, rep *ReplayReport) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(benchReport{Replay: rep})
}

func summarizeLatency(outcomes []*experiments.RecordedOutcome) latencySummary {
	h := metrics.NewRegistry().Histogram("bench_run_seconds", "", metrics.DurationBuckets)
	for _, o := range outcomes {
		if o.Failed {
			continue
		}
		h.ObserveDuration(o.Wall)
	}
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	return latencySummary{
		Count: h.Count(),
		P50:   sec(h.Quantile(0.50)),
		P95:   sec(h.Quantile(0.95)),
		P99:   sec(h.Quantile(0.99)),
		Max:   sec(h.Max()),
	}
}

func writeJSON(path string, outcomes []*experiments.RecordedOutcome) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(benchReport{Outcomes: outcomes, Latency: summarizeLatency(outcomes)})
}
