package engine

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"parajoin/internal/core"
	"parajoin/internal/rel"
	"parajoin/internal/shares"
	"parajoin/internal/trace"
)

// scrubTimes replaces every wall-clock quantity in EXPLAIN ANALYZE output
// with "?" so golden comparisons only pin the deterministic parts (tree
// shape, row counts, traffic, skew).
func scrubTimes(s string) string {
	s = regexp.MustCompile(`time=[^ )]+`).ReplaceAllString(s, "time=?")
	s = regexp.MustCompile(`sort=[^ )]+`).ReplaceAllString(s, "sort=?")
	s = regexp.MustCompile(`join=[^ )]+`).ReplaceAllString(s, "join=?")
	s = regexp.MustCompile(`wall=[^ ]+ cpu=[^ ]+`).ReplaceAllString(s, "wall=? cpu=?")
	s = regexp.MustCompile(`max queue depth \d+`).ReplaceAllString(s, "max queue depth ?")
	return s
}

func explainTriangle(t *testing.T) ([]Round, []trace.Event, *Report) {
	t.Helper()
	q := triangleQuery()
	workers := 4
	c := NewCluster(workers)
	defer c.Close()
	c.Load(randGraph("R", 500, 50, 9))
	c.Load(randGraph("S", 500, 50, 10))
	c.Load(randGraph("T", 500, 50, 11))
	cfg := shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{2, 2, 2}}
	rounds := []Round{{Name: "hc_tj", Plan: hcTrianglePlan(q, cfg, workers)}}
	col := trace.NewCollector()
	_, report, err := c.RunRoundsOpts(context.Background(), rounds, RunOpts{Tracer: trace.New(col)})
	if err != nil {
		t.Fatal(err)
	}
	return rounds, col.Events(), report
}

func TestExplainAnalyzeTriangleGolden(t *testing.T) {
	rounds, events, report := explainTriangle(t)
	got := scrubTimes(ExplainAnalyze(rounds, events, report))
	// Drop the total/transport footer (wall-clock and scheduling dependent
	// even after scrubbing: queue depth, byte deltas stay, times don't).
	if i := strings.Index(got, "total:"); i >= 0 {
		got = got[:i]
	}
	want := `  exchange 0 [hypercube] HCS R(x,y)  (sent=898 producer-skew=1.01 consumer-skew=1.23 time=?)
    scan R  (rows=449 time=?)
  exchange 1 [hypercube] HCS S(y,z)  (sent=451 producer-skew=1.00 consumer-skew=1.29 time=?)
    scan S  (rows=451 time=?)
  exchange 2 [hypercube] HCS T(z,x)  (sent=922 producer-skew=1.01 consumer-skew=1.01 time=?)
    scan T  (rows=461 time=?)
  root
    tributary join Triangle order [x y z]  (rows=753 time=? sort=? join=?)
      recv exchange 0  (rows=898 time=?)
      recv exchange 1  (rows=451 time=?)
      recv exchange 2  (rows=922 time=?)
`
	if got != want {
		t.Errorf("explain mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExplainAnalyzeMatchesReport checks the acceptance criterion: the
// annotations must agree with the Report for the same run.
func TestExplainAnalyzeMatchesReport(t *testing.T) {
	rounds, events, report := explainTriangle(t)
	out := ExplainAnalyze(rounds, events, report)
	for _, ex := range report.Exchanges {
		wantSent := fmt.Sprintf("sent=%d", ex.TuplesSent())
		wantSkew := fmt.Sprintf("producer-skew=%.2f consumer-skew=%.2f", ex.ProducerSkew(), ex.ConsumerSkew())
		if !strings.Contains(out, wantSent) {
			t.Errorf("exchange %d: output lacks %q\n%s", ex.ID, wantSent, out)
		}
		if !strings.Contains(out, wantSkew) {
			t.Errorf("exchange %d: output lacks %q\n%s", ex.ID, wantSkew, out)
		}
	}
	if !strings.Contains(out, fmt.Sprintf("transport: %d bytes sent, %d received", report.BytesSent, report.BytesReceived)) {
		t.Errorf("output lacks the report's transport byte totals\n%s", out)
	}
}

// TestExplainAnalyzeMultiRound checks round headers and per-round run
// matching on a two-round plan.
func TestExplainAnalyzeMultiRound(t *testing.T) {
	c := NewCluster(4)
	defer c.Close()
	c.Load(randGraph("R", 500, 80, 21))
	c.Load(randGraph("S", 500, 80, 22))

	first := shuffleGather("R", []string{"dst"})
	second := &Plan{
		Exchanges: []ExchangeSpec{
			{ID: 0, Name: "tmp", Input: Scan{Table: "tmp"}, Kind: RouteHash, HashCols: []string{"dst"}, Seed: 3},
			{ID: 1, Name: "S", Input: Project{
				Input: Scan{Table: "S"}, Cols: []string{"src", "dst"}, As: []string{"dst", "c"},
			}, Kind: RouteHash, HashCols: []string{"dst"}, Seed: 3},
		},
		Root: HashJoin{
			Left:     Recv{Exchange: 0, Schema: rel.Schema{"src", "dst"}},
			Right:    Recv{Exchange: 1, Schema: rel.Schema{"dst", "c"}},
			LeftCols: []string{"dst"}, RightCols: []string{"dst"},
		},
	}
	rounds := []Round{
		{Name: "stage", Plan: first, StoreAs: "tmp"},
		{Name: "join", Plan: second},
	}
	col := trace.NewCollector()
	_, report, err := c.RunRoundsOpts(context.Background(), rounds, RunOpts{Tracer: trace.New(col)})
	if err != nil {
		t.Fatal(err)
	}
	out := ExplainAnalyze(rounds, col.Events(), report)
	for _, want := range []string{"round 0 (stage) -> store tmp", "round 1 (join)", "scan tmp"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	// Both rounds' scans must carry actuals (500 staged tuples each way).
	if strings.Count(out, "rows=") < 4 {
		t.Errorf("expected actuals on both rounds:\n%s", out)
	}
}
