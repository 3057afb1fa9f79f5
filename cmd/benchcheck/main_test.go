package main

import (
	"strings"
	"testing"
	"time"
)

func goodReport() string {
	return `{
	  "Outcomes": [
	    {"Query": "Q1", "Config": "hc_tj", "Workers": 8, "Failed": false, "Wall": 50000000},
	    {"Query": "Q1", "Config": "rs_hj", "Workers": 8, "Failed": false, "Wall": 70000000}
	  ],
	  "Latency": {"Count": 2, "P50": 50000000, "P95": 70000000, "P99": 70000000, "Max": 70000000}
	}`
}

func firstProblem(t *testing.T, data string, minRuns int) string {
	t.Helper()
	_, problems := validate([]byte(data), minRuns)
	if len(problems) == 0 {
		t.Fatal("expected a validation problem, got none")
	}
	return problems[0]
}

func TestValidateGoodReport(t *testing.T) {
	n, problems := validate([]byte(goodReport()), 2)
	if len(problems) != 0 {
		t.Fatalf("unexpected problems: %v", problems)
	}
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
}

func TestValidateRejectsLegacyArray(t *testing.T) {
	p := firstProblem(t, `[{"Query": "Q1"}]`, 1)
	if !strings.Contains(p, "legacy bare-array") {
		t.Fatalf("wrong problem: %q", p)
	}
}

func TestValidateRejectsUnknownKeys(t *testing.T) {
	data := strings.Replace(goodReport(), `"Latency"`, `"Latency2"`, 1)
	_, problems := validate([]byte(data), 1)
	joined := strings.Join(problems, "; ")
	if !strings.Contains(joined, `unknown top-level key "Latency2"`) {
		t.Fatalf("missing unknown-key problem: %v", problems)
	}
	if !strings.Contains(joined, "missing Latency digest") {
		t.Fatalf("missing missing-digest problem: %v", problems)
	}
}

func TestValidateRejectsNegativePercentiles(t *testing.T) {
	data := strings.Replace(goodReport(), `"P50": 50000000`, `"P50": -1`, 1)
	if p := firstProblem(t, data, 1); !strings.Contains(p, "negative latency") {
		t.Fatalf("wrong problem: %q", p)
	}
}

func TestValidateRejectsUnorderedPercentiles(t *testing.T) {
	data := strings.Replace(goodReport(), `"P95": 70000000`, `"P95": 40000000`, 1)
	if p := firstProblem(t, data, 1); !strings.Contains(p, "out of order") {
		t.Fatalf("wrong problem: %q", p)
	}
}

func TestValidateRejectsCountMismatch(t *testing.T) {
	data := strings.Replace(goodReport(), `"Count": 2`, `"Count": 5`, 1)
	if p := firstProblem(t, data, 1); !strings.Contains(p, "counts 5 runs") {
		t.Fatalf("wrong problem: %q", p)
	}
}

func TestValidateRejectsZeroP50WithRuns(t *testing.T) {
	data := strings.Replace(goodReport(),
		`"Count": 2, "P50": 50000000`, `"Count": 2, "P50": 0`, 1)
	if p := firstProblem(t, data, 1); !strings.Contains(p, "missing p50") {
		t.Fatalf("wrong problem: %q", p)
	}
}

func TestValidateRejectsFailedRun(t *testing.T) {
	data := strings.Replace(goodReport(),
		`"Workers": 8, "Failed": false, "Wall": 70000000}`,
		`"Workers": 8, "Failed": true, "FailWhy": "OOM", "Wall": 70000000}`, 1)
	// The digest now counts 2 but only 1 completed; both problems are fine —
	// the FAILED one must be among them.
	_, problems := validate([]byte(data), 1)
	if !strings.Contains(strings.Join(problems, "; "), "FAILED run") {
		t.Fatalf("missing FAILED problem: %v", problems)
	}
}

func TestValidateMinRuns(t *testing.T) {
	if p := firstProblem(t, goodReport(), 3); !strings.Contains(p, "want at least 3") {
		t.Fatalf("wrong problem: %q", p)
	}
}

func goodReplayReport() string {
	return `{
	  "Outcomes": [],
	  "Latency": {"Count": 0, "P50": 0, "P95": 0, "P99": 0, "Max": 0},
	  "Replay": {
	    "Zipf": 1.1, "Queries": 10, "Shapes": 4,
	    "Arms": [
	      {"Name": "cold", "P50": 300, "P95": 400, "P99": 500,
	       "ResultHits": 0, "ResultMisses": 0},
	      {"Name": "result", "P50": 60, "P95": 150, "P99": 200,
	       "ResultHits": 3, "ResultMisses": 7}
	    ],
	    "P50Speedup": 5.0
	  }
	}`
}

func TestValidateReplayGood(t *testing.T) {
	// min-runs does not apply to replay reports: zero outcomes is fine.
	if n, problems := validate([]byte(goodReplayReport()), 2); len(problems) != 0 || n != 0 {
		t.Fatalf("replay report should pass: n=%d problems=%v", n, problems)
	}
}

func TestValidateReplayProblems(t *testing.T) {
	for _, tc := range []struct {
		name, from, to, want string
	}{
		{"no queries", `"Queries": 10`, `"Queries": 0`, "replay: 0 queries"},
		{"weak zipf", `"Zipf": 1.1`, `"Zipf": 0.9`, "zipf exponent"},
		{"unordered percentiles", `"P50": 60, "P95": 150`, `"P50": 60, "P95": 40`, "out of order"},
		{"negative counters", `"ResultHits": 3, "ResultMisses": 7`, `"ResultHits": -3, "ResultMisses": 13`,
			"negative cache counters"},
		{"cold arm counted", `"ResultHits": 0, "ResultMisses": 0`, `"ResultHits": 1, "ResultMisses": 0`,
			"no-cache arm"},
		{"result probes short", `"ResultHits": 3, "ResultMisses": 7`, `"ResultHits": 3, "ResultMisses": 6`,
			"result hits+misses 9 != 10 queries"},
		{"missing speedup", `"P50Speedup": 5.0`, `"P50Speedup": 0`, "missing p50 speedup"},
	} {
		data := strings.Replace(goodReplayReport(), tc.from, tc.to, 1)
		if data == goodReplayReport() {
			t.Fatalf("%s: replacement %q did not apply", tc.name, tc.from)
		}
		_, problems := validate([]byte(data), 0)
		if !strings.Contains(strings.Join(problems, "; "), tc.want) {
			t.Fatalf("%s: missing %q in %v", tc.name, tc.want, problems)
		}
	}
}

func TestValidateReplayArmCount(t *testing.T) {
	data := strings.Replace(goodReplayReport(), `{"Name": "cold", "P50": 300, "P95": 400, "P99": 500,
	       "ResultHits": 0, "ResultMisses": 0},`, "", 1)
	if p := firstProblem(t, data, 0); !strings.Contains(p, "1 arms, want 2") {
		t.Fatalf("wrong problem: %q", p)
	}
}

func TestValidateEmptyReportOK(t *testing.T) {
	data := `{"Outcomes": [], "Latency": {"Count": 0, "P50": 0, "P95": 0, "P99": 0, "Max": 0}}`
	if n, problems := validate([]byte(data), 0); len(problems) != 0 || n != 0 {
		t.Fatalf("empty report should pass with min-runs 0: n=%d problems=%v", n, problems)
	}
	_ = time.Duration(0) // keep the import honest if fields change
}
