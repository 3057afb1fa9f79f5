// Command bench is the repository's benchmark: six served workloads measured
// end to end against real parajoind child processes, and a per-layer ledger
// measured in-process from outside the program. README.md has the metric and
// workload tables; BENCHMARK.json at the repository root is the machine-read
// contract. Run it from this directory:
//
//	go run .                               every workload, end to end
//	go run . -workload dist_2node -trace 1 one workload's per-layer ledger
//	go run . -selfcheck                    two sets back to back, compared
//	go run . -smoke                        one pass of everything, seconds
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// endToEnd lists the gated metrics in print order; BENCHMARK.json repeats
// them with their bounds.
var endToEnd = []metricDef{
	{"pass_p50_ms", "ms"},
	{"throughput_qps", "ops/s"},
	{"cpu_ms_per_pass", "ms"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

func (r *servedResult) metric(name string) float64 {
	switch name {
	case "pass_p50_ms":
		return r.PassP50Ms
	case "throughput_qps":
		return r.Throughput
	case "cpu_ms_per_pass":
		return r.CPUMsPerPass
	case "peak_rss_mb":
		return r.PeakRSSMiB
	case "setup_s":
		return r.SetupS
	}
	panic("unknown end-to-end metric " + name)
}

// measured is one value of the result line.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output, the part a driver reads.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "seed for node ids, row order and lookup arguments")
		seconds      = flag.Float64("seconds", 13, "length of each workload's timed phase")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics against child daemons; 1: per-layer ledger, in-process")
		traceOut     = flag.String("trace-out", "", "with -trace 1, write the spans here (default "+workDir+"/trace-<workload>.json)")
		selfcheck    = flag.Bool("selfcheck", false, "run every workload twice and fail if an end-to-end metric moves by more than its bound")
		smoke        = flag.Bool("smoke", false, "one set-up and one timed pass per workload, and one ledger iteration: a harness check, not a measurement")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	// Every exit path below unwinds through defers, so SIGINT and SIGTERM
	// only cancel the context: children are stopped and run directories
	// removed by the same code that handles an ordinary error.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var selected []*workload
	if *workloadName == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := findWorkload(*workloadName); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		return 2
	}

	printHost()
	cfg := runConfig{seed: *seed, seconds: *seconds, minPasses: 5, minIters: ledgerIters, setupReps: setupReps, warmups: warmupPasses}
	if *smoke {
		cfg = runConfig{seed: *seed, minPasses: 1, minIters: 1, setupReps: 1}
	}

	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(ctx, selected, cfg)
	case *smoke:
		err = runSmoke(ctx, selected, cfg)
	case *trace == 1:
		err = runTraced(ctx, selected, cfg, *traceOut)
	default:
		err = runEndToEnd(ctx, selected, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// runConfig sizes a run. Smoke mode shrinks everything to one.
type runConfig struct {
	seed      int64
	seconds   float64
	minPasses int
	minIters  int
	setupReps int
	warmups   int
}

var errOpsFailed = errors.New("operations failed")

func runEndToEnd(ctx context.Context, ws []*workload, cfg runConfig) error {
	bin, err := buildDaemon(ctx)
	if err != nil {
		return err
	}
	line := resultLine{Correct: true, Metrics: map[string]measured{}}
	for _, w := range ws {
		in, err := prepare(ctx, w, cfg.seed)
		if err != nil {
			return err
		}
		res, err := runServed(ctx, w, in, cfg, bin)
		if err != nil {
			return err
		}
		res.print()
		line.add(w, len(ws) > 1, res.Attempted, res.failed(), endToEnd, res.metric)
	}
	return line.emit()
}

func runTraced(ctx context.Context, ws []*workload, cfg runConfig, traceOut string) error {
	line := resultLine{Correct: true, Metrics: map[string]measured{}}
	for _, w := range ws {
		path := traceOut
		if path == "" || len(ws) > 1 {
			path = filepath.Join(workDir, "trace-"+w.name+".json")
		}
		in, err := prepare(ctx, w, cfg.seed)
		if err != nil {
			return err
		}
		res, err := runLedger(ctx, w, in, cfg, path)
		if err != nil {
			return err
		}
		res.print(path)
		line.add(w, len(ws) > 1, res.Attempted, res.Failed, layerMetrics, func(name string) float64 { return res.Metrics[name] })
	}
	return line.emit()
}

func runSmoke(ctx context.Context, ws []*workload, cfg runConfig) error {
	bin, err := buildDaemon(ctx)
	if err != nil {
		return err
	}
	failed := 0
	for _, w := range ws {
		in, err := prepare(ctx, w, cfg.seed)
		if err != nil {
			return err
		}
		res, err := runServed(ctx, w, in, cfg, bin)
		if err != nil {
			return err
		}
		led, err := runLedger(ctx, w, in, cfg, "")
		if err != nil {
			return err
		}
		fmt.Printf("smoke %-16s served: %d ops, %d failed; ledger: %d ops, %d failed, %d spans\n",
			w.name, res.Attempted, res.failed(), led.Attempted, led.Failed, led.Spans)
		for _, e := range []error{res.FirstFailure, led.First} {
			if e != nil {
				fmt.Printf("  first failure: %v\n", e)
			}
		}
		failed += res.failed() + led.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d %w", failed, errOpsFailed)
	}
	return nil
}

// add folds one workload's outcome into the line. With several workloads in
// one invocation the metric names carry the workload as a prefix.
func (l *resultLine) add(w *workload, prefixed bool, attempted, failed int, defs []metricDef, value func(string) float64) {
	l.Attempted += attempted
	l.Failed += failed
	for _, def := range defs {
		name := def.name
		if prefixed {
			name = w.name + "." + name
		}
		l.Metrics[name] = measured{value(def.name), def.unit}
	}
}

// emit prints the result line and turns failed ops into a failing exit.
func (l *resultLine) emit() error {
	l.Correct = l.Failed == 0
	out, err := json.Marshal(l)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if l.Failed > 0 {
		return fmt.Errorf("%d of %d %w", l.Failed, l.Attempted, errOpsFailed)
	}
	return nil
}

func (r *servedResult) print() {
	fmt.Printf("workload %s seed=%d timed_passes=%d ops_attempted=%d ops_failed=%d\n",
		r.Workload, r.Seed, r.Passes, r.Attempted, r.failed())
	fmt.Printf("  %-18s %12.3f ms     (n=%d passes)\n", "pass_p50_ms", r.PassP50Ms, r.Passes)
	fmt.Printf("  %-18s %12.3f ops/s  (%d correct ops over the timed passes' wall)\n", "throughput_qps", r.Throughput, r.Attempted-r.Failed)
	fmt.Printf("  %-18s %12.3f ms     (server-side user+sys over n=%d passes)\n", "cpu_ms_per_pass", r.CPUMsPerPass, r.Passes)
	fmt.Printf("  %-18s %12.3f MiB    (sum of VmHWM over server-side processes)\n", "peak_rss_mb", r.PeakRSSMiB)
	fmt.Printf("  %-18s %12.3f s      (median of n=%d set-ups: %.3f)\n", "setup_s", r.SetupS, len(r.SetupSamples), r.SetupSamples)
	fmt.Printf("  %-18s %12.3f ms     (n=%d passes; diagnostic, not gated)\n", "pass_p90_ms", r.PassP90Ms, r.Passes)
	for i, label := range r.OpLabels {
		fmt.Printf("    op %-22s p50_ms %10.3f\n", label, r.OpP50Ms[i])
	}
	if r.FirstFailure != nil {
		fmt.Printf("  first failure: %v\n", r.FirstFailure)
	}
}

func (r *ledgerResult) print(tracePath string) {
	fmt.Printf("ledger %s iterations=%d ops_attempted=%d ops_failed=%d spans=%d -> %s\n",
		r.Workload, r.Iterations, r.Attempted, r.Failed, r.Spans, tracePath)
	for _, def := range layerMetrics {
		fmt.Printf("  %-32s %16.3f %s\n", def.name, r.Metrics[def.name], def.unit)
	}
	if r.First != nil {
		fmt.Printf("  first failure: %v\n", r.First)
	}
}

// printHost prints the block every run starts with: numbers from two hosts,
// or two toolchains, are not comparable and the output should say which it
// was.
func printHost() {
	commit := "unknown" // the driver's checkouts are not git repositories
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("host: cores=%d GOMAXPROCS=%d go=%s os=%s/%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "bench: removing %s: %v\n", dir, err)
	}
}
