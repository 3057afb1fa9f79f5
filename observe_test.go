package parajoin

import (
	"context"
	"strings"
	"testing"

	"parajoin/internal/trace"
)

func TestWithTracerSeesEveryRun(t *testing.T) {
	col := trace.NewCollector()
	db := Open(4, WithTracer(NewTracer(col)))
	defer db.Close()
	if err := db.LoadEdges("E", SyntheticGraph(1500, 200, 3)); err != nil {
		t.Fatal(err)
	}
	q, err := db.Query("Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.RunWith(context.Background(), HyperCubeTributary); err != nil {
		t.Fatal(err)
	}
	events := col.Events()
	if len(events) == 0 {
		t.Fatal("tracer saw no events")
	}
	kinds := map[trace.Kind]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	for _, k := range []trace.Kind{trace.KindRun, trace.KindOp, trace.KindSend, trace.KindPhase} {
		if kinds[k] == 0 {
			t.Errorf("no %q events in %v", k, kinds)
		}
	}
}

func TestQueryExplainAnalyze(t *testing.T) {
	db := testDB(t, 4)
	loadTriangleGraph(t, db)
	q, err := db.Query("Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)")
	if err != nil {
		t.Fatal(err)
	}
	out, err := q.ExplainAnalyze(context.Background(), HyperCubeTributary)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"exchange 0 [hypercube]", "tributary join Tri", "rows=", "producer-skew=", "transport:"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE lacks %q:\n%s", want, out)
		}
	}
}

// TestExplainAnalyzeSemijoinRounds covers the multi-round path through the
// public API: the Yannakakis reduction runs several rounds, each of which
// must carry its own actuals.
func TestExplainAnalyzeSemijoinRounds(t *testing.T) {
	db := testDB(t, 4)
	loadTriangleGraph(t, db)
	q, err := db.Query("Path(x,z) :- E(x,y), E(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	out, err := q.ExplainAnalyze(context.Background(), Semijoin)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "round 0") || !strings.Contains(out, "rows=") {
		t.Errorf("semijoin EXPLAIN ANALYZE lacks round headers or actuals:\n%s", out)
	}
}
