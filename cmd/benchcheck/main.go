// Command benchcheck validates a benchrunner -json report: the CI smoke
// gate that fails when a benchmark run produced no outcomes, an unparsable
// report, a malformed latency digest, or any failed run (OOM, SPILL-CAP,
// TIMEOUT, or a transport error). It prints a one-line summary per problem
// and exits nonzero so a workflow step can gate on it.
//
// The report is an object {Outcomes: [...], Latency: {Count, P50, ...}};
// unknown top-level keys are rejected to catch schema drift between
// benchrunner and this gate.
//
// With -compare-bytes, benchcheck instead takes two reports over the same
// workload — a flat-accounting baseline (benchrunner -columnar=false) and a
// columnar run — matches their outcomes by (query, config, workers), and
// fails unless every matched pair moved strictly fewer exchange bytes under
// the columnar encoding: the regression gate for the colbatch format.
//
//	benchrunner -exp figure3 -workers 8 -edges 2000 -json report.json
//	benchcheck report.json
//	benchcheck -compare-bytes legacy.json columnar.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"parajoin/internal/experiments"
)

// report mirrors benchrunner's -json output shape.
type report struct {
	Outcomes []*experiments.RecordedOutcome
	Latency  latency
	Replay   *replay
}

// replay mirrors benchrunner's -replay-zipf report.
type replay struct {
	Zipf    float64
	Queries int
	Shapes  int
	Arms    []replayArm
	// P50Speedup is cold p50 over result-cache p50.
	P50Speedup float64
}

type replayArm struct {
	Name          string
	P50, P95, P99 time.Duration
	ResultHits    int64
	ResultMisses  int64
}

// latency is benchrunner's percentile digest; durations are nanoseconds.
type latency struct {
	Count int64
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchcheck: ")
	minRuns := flag.Int("min-runs", 1, "fail when the report has fewer runs than this")
	compareBytes := flag.Bool("compare-bytes", false, "compare two reports (legacy.json columnar.json) and fail unless exchange bytes strictly decreased for every matched run")
	flag.Parse()

	if *compareBytes {
		if flag.NArg() != 2 {
			log.Fatal("usage: benchcheck -compare-bytes legacy.json columnar.json")
		}
		legacy, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		columnar, err := os.ReadFile(flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		n, problems := compareBytesReports(legacy, columnar)
		for _, p := range problems {
			fmt.Println(p)
		}
		if len(problems) > 0 {
			log.Fatalf("%s vs %s: byte comparison failed (%d problems)", flag.Arg(0), flag.Arg(1), len(problems))
		}
		fmt.Printf("benchcheck: exchange bytes strictly decreased on all %d matched runs\n", n)
		return
	}

	if flag.NArg() != 1 {
		log.Fatal("usage: benchcheck [-min-runs N] report.json")
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	n, problems := validate(data, *minRuns)
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		log.Fatalf("%s: report failed validation (%d problems)", flag.Arg(0), len(problems))
	}
	fmt.Printf("benchcheck: %d runs ok\n", n)
}

// runKey identifies one outcome across the two reports of a byte
// comparison.
type runKey struct {
	Query   string
	Config  string
	Workers int
}

// compareBytesReports matches the two reports' outcomes and checks that
// every matched pair (1) produced the same result cardinality — the
// encoding must not change answers — and (2) moved strictly fewer exchange
// bytes in the columnar report. Runs that shuffled nothing are exempt from
// the strict decrease (there is nothing to compress) but must not grow.
func compareBytesReports(legacyData, columnarData []byte) (int, []string) {
	parse := func(name string, data []byte) (map[runKey]*experiments.RecordedOutcome, []string) {
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, []string{fmt.Sprintf("%s report: malformed: %v", name, err)}
		}
		var problems []string
		runs := make(map[runKey]*experiments.RecordedOutcome, len(rep.Outcomes))
		for _, o := range rep.Outcomes {
			if o.Failed {
				problems = append(problems, fmt.Sprintf("%s report: FAILED run %s/%s: %s", name, o.Query, o.Config, o.FailWhy))
				continue
			}
			if o.Report == nil {
				problems = append(problems, fmt.Sprintf("%s report: %s/%s has no engine report (byte counters missing)", name, o.Query, o.Config))
				continue
			}
			runs[runKey{o.Query, o.Config, o.Workers}] = o
		}
		return runs, problems
	}
	legacy, problems := parse("legacy", legacyData)
	columnar, more := parse("columnar", columnarData)
	problems = append(problems, more...)
	if len(problems) > 0 {
		return 0, problems
	}

	matched := 0
	for k, lo := range legacy {
		co, ok := columnar[k]
		if !ok {
			problems = append(problems, fmt.Sprintf("run %s/%s/%dw only in legacy report", k.Query, k.Config, k.Workers))
			continue
		}
		matched++
		if lo.Results != co.Results {
			problems = append(problems, fmt.Sprintf("run %s/%s: result count changed %d -> %d (encoding must not change answers)",
				k.Query, k.Config, lo.Results, co.Results))
		}
		lb, cb := lo.Report.BytesSent, co.Report.BytesSent
		switch {
		case lb > 0 && cb >= lb:
			problems = append(problems, fmt.Sprintf("run %s/%s: exchange bytes did not decrease: %d -> %d", k.Query, k.Config, lb, cb))
		case lb == 0 && cb != 0:
			problems = append(problems, fmt.Sprintf("run %s/%s: exchange bytes grew from zero to %d", k.Query, k.Config, cb))
		}
	}
	for k := range columnar {
		if _, ok := legacy[k]; !ok {
			problems = append(problems, fmt.Sprintf("run %s/%s/%dw only in columnar report", k.Query, k.Config, k.Workers))
		}
	}
	if matched == 0 {
		problems = append(problems, "no matched runs between the two reports")
	}
	return matched, problems
}

// knownKeys are the only top-level keys a report may carry; anything else
// means benchrunner and benchcheck have drifted apart.
var knownKeys = map[string]bool{"Outcomes": true, "Latency": true, "Replay": true}

// validate checks one report and returns the run count plus every problem
// found. It is the whole gate, factored out of main for testing.
func validate(data []byte, minRuns int) (int, []string) {
	if bytes.HasPrefix(bytes.TrimSpace(data), []byte("[")) {
		return 0, []string{"legacy bare-array report: regenerate with a benchrunner that writes {Outcomes, Latency}"}
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		return 0, []string{fmt.Sprintf("malformed report: %v", err)}
	}
	var problems []string
	for k := range keys {
		if !knownKeys[k] {
			problems = append(problems, fmt.Sprintf("unknown top-level key %q (schema drift?)", k))
		}
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return 0, append(problems, fmt.Sprintf("malformed report: %v", err))
	}

	// A replay report carries its runs under Replay; only experiment
	// reports must meet the outcome floor.
	if rep.Replay == nil && len(rep.Outcomes) < minRuns {
		problems = append(problems, fmt.Sprintf("%d runs recorded, want at least %d", len(rep.Outcomes), minRuns))
	}
	for _, o := range rep.Outcomes {
		if o.Query == "" || o.Config == "" || o.Workers <= 0 {
			problems = append(problems, fmt.Sprintf("incomplete outcome: query=%q config=%q workers=%d", o.Query, o.Config, o.Workers))
			continue
		}
		if o.Failed {
			problems = append(problems, fmt.Sprintf("FAILED run: %s under %s on %d workers: %s", o.Query, o.Config, o.Workers, o.FailWhy))
		}
	}

	// Latency digest: percentiles must exist, be non-negative, and be
	// ordered; a report with completed runs must have a matching count.
	if _, ok := keys["Latency"]; !ok {
		problems = append(problems, "missing Latency digest")
	} else {
		lat := rep.Latency
		completed := 0
		for _, o := range rep.Outcomes {
			if !o.Failed {
				completed++
			}
		}
		switch {
		case lat.P50 < 0 || lat.P95 < 0 || lat.P99 < 0 || lat.Max < 0 || lat.Count < 0:
			problems = append(problems, fmt.Sprintf("negative latency digest: %+v", lat))
		case lat.P50 > lat.P95 || lat.P95 > lat.P99 || lat.P99 > lat.Max:
			problems = append(problems, fmt.Sprintf("latency percentiles out of order: p50=%v p95=%v p99=%v max=%v",
				lat.P50, lat.P95, lat.P99, lat.Max))
		case int(lat.Count) != completed:
			problems = append(problems, fmt.Sprintf("latency digest counts %d runs, report has %d completed", lat.Count, completed))
		case completed > 0 && lat.P50 <= 0:
			problems = append(problems, fmt.Sprintf("latency digest missing p50 (%v) despite %d completed runs", lat.P50, completed))
		}
	}

	if rep.Replay != nil {
		problems = append(problems, validateReplay(rep.Replay)...)
	}
	return len(rep.Outcomes), problems
}

// validateReplay gates a -replay-zipf section: two arms with ordered,
// positive percentiles, a cold arm that recorded no cache activity, and a
// result-cache arm whose hits and misses add up to the query count.
func validateReplay(r *replay) []string {
	var problems []string
	if r.Queries <= 0 {
		problems = append(problems, fmt.Sprintf("replay: %d queries", r.Queries))
	}
	if r.Zipf <= 1 {
		problems = append(problems, fmt.Sprintf("replay: zipf exponent %g, want > 1", r.Zipf))
	}
	if len(r.Arms) != 2 {
		problems = append(problems, fmt.Sprintf("replay: %d arms, want 2 (cold, result)", len(r.Arms)))
		return problems
	}
	for _, a := range r.Arms {
		switch {
		case a.P50 <= 0 || a.P95 < a.P50 || a.P99 < a.P95:
			problems = append(problems, fmt.Sprintf("replay arm %s: percentiles out of order: p50=%v p95=%v p99=%v",
				a.Name, a.P50, a.P95, a.P99))
		case a.ResultHits < 0 || a.ResultMisses < 0:
			problems = append(problems, fmt.Sprintf("replay arm %s: negative cache counters", a.Name))
		}
	}
	cold := r.Arms[0]
	if cold.ResultHits+cold.ResultMisses != 0 {
		problems = append(problems, fmt.Sprintf("replay arm %s: cache counters nonzero on the no-cache arm", cold.Name))
	}
	if warm := r.Arms[1]; int(warm.ResultHits+warm.ResultMisses) != r.Queries {
		problems = append(problems, fmt.Sprintf("replay arm %s: result hits+misses %d != %d queries",
			warm.Name, warm.ResultHits+warm.ResultMisses, r.Queries))
	}
	if r.P50Speedup <= 0 {
		problems = append(problems, fmt.Sprintf("replay: missing p50 speedup (%.2f)", r.P50Speedup))
	}
	return problems
}
