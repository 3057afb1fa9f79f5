package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"parajoin/internal/dataset"
	"parajoin/internal/planner"
)

// tinySuite runs every experiment in seconds: 8 workers, small data.
func tinySuite() *Suite {
	return &Suite{
		Workers:        8,
		Graph:          dataset.GraphConfig{Edges: 2000, Nodes: 300, Skew: 1.3, Seed: 11},
		KB:             dataset.KBConfig{Actors: 300, Films: 200, Performances: 1000, Directors: 40, Honors: 150, Awards: 8, Seed: 11},
		MemLimitTuples: 5_000_000,
		Timeout:        time.Minute,
		Seed:           3,
	}
}

func TestSixConfigsAllAgree(t *testing.T) {
	s := tinySuite()
	defer s.Close()
	sc, err := s.SixConfigs("Q1")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Rows) != 6 {
		t.Fatalf("%d rows", len(sc.Rows))
	}
	results := -1
	for _, r := range sc.Rows {
		if r.Failed {
			t.Fatalf("%v failed: %s", r.Config, r.FailWhy)
		}
		if results == -1 {
			results = r.Results
		} else if r.Results != results {
			t.Errorf("%v returned %d results, others %d", r.Config, r.Results, results)
		}
	}
	// HyperCube must shuffle less than broadcast on the triangle query.
	hc, br := sc.Row(planner.HCTJ), sc.Row(planner.BRTJ)
	if hc.Shuffled >= br.Shuffled {
		t.Errorf("HC shuffled %d, BR %d; HC must be below BR on Q1", hc.Shuffled, br.Shuffled)
	}
	var buf bytes.Buffer
	sc.Render(&buf)
	if !strings.Contains(buf.String(), "RS_HJ") {
		t.Error("render output missing configuration rows")
	}
}

func TestProjectionQueryResultsAgree(t *testing.T) {
	s := tinySuite()
	defer s.Close()
	sc, err := s.SixConfigs("Q3")
	if err != nil {
		t.Fatal(err)
	}
	results := -1
	for _, r := range sc.Rows {
		if r.Failed {
			t.Fatalf("%v failed: %s", r.Config, r.FailWhy)
		}
		if results == -1 {
			results = r.Results
		} else if r.Results != results {
			t.Errorf("%v returned %d results, others %d", r.Config, r.Results, results)
		}
	}
	if results <= 0 {
		t.Error("Q3 should have answers")
	}
}

func TestTables(t *testing.T) {
	s := tinySuite()
	defer s.Close()

	t1 := s.Table1()
	if len(t1.Rows) != 4 || t1.Rows[1].Name != "ActorPerform" {
		t.Fatalf("Table1 rows: %+v", t1.Rows)
	}
	t8 := s.Table8()
	if len(t8.Rows) != 4 {
		t.Fatalf("Table8 rows: %+v", t8.Rows)
	}
	if t8.Rows[0].Tuples != 1 {
		t.Errorf("σ_name(ObjectName) = %d tuples, want 1", t8.Rows[0].Tuples)
	}

	t2, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	// RS_HJ on Q1 has 4 shuffles: R, S, intermediate, T.
	if len(t2.Rows) != 4 {
		t.Fatalf("Table2 has %d exchanges, want 4", len(t2.Rows))
	}
	t3, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 3 {
		t.Fatalf("Table3 has %d exchanges, want 3 (one per atom)", len(t3.Rows))
	}
	// HC consumer skew must be mild on every exchange.
	for _, r := range t3.Rows {
		if r.ConsumerSkew() > 3 {
			t.Errorf("HC shuffle %s skew %.2f unexpectedly high", r.Name, r.ConsumerSkew())
		}
	}
	t4, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != 2 {
		t.Fatalf("Table4 has %d exchanges, want 2 broadcasts", len(t4.Rows))
	}

	t5, err := s.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Rows) == 0 {
		t.Fatal("Table5 empty")
	}
	var buf bytes.Buffer
	t1.Render(&buf)
	t2.Render(&buf)
	t5.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("renders produced nothing")
	}
}

func TestTable6Summary(t *testing.T) {
	s := tinySuite()
	defer s.Close()
	sum, err := s.Table6("Q1", "Q7")
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Rows) != 2 {
		t.Fatalf("%d rows", len(sum.Rows))
	}
	q1 := sum.Rows[0]
	if !q1.Cyclic || q1.Tables != 3 || q1.JoinVars != 3 {
		t.Errorf("Q1 row: %+v", q1)
	}
	q7 := sum.Rows[1]
	if q7.Cyclic || q7.Tables != 4 || q7.JoinVars != 2 {
		t.Errorf("Q7 row: %+v", q7)
	}
	var buf bytes.Buffer
	sum.Render(&buf)
	if !strings.Contains(buf.String(), "Q1") {
		t.Error("render missing Q1")
	}
}

func TestOrderStudy(t *testing.T) {
	s := tinySuite()
	defer s.Close()
	st, err := s.OrderStudy("Q7", 2, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Samples) != 2 {
		t.Fatalf("%d samples", len(st.Samples))
	}
	if st.Best.Estimate <= 0 {
		t.Error("best order estimate should be positive")
	}
	// The model's best order should not do more seeks than the worst sample.
	worst := st.Samples[0]
	for _, smp := range st.Samples {
		if smp.Seeks > worst.Seeks {
			worst = smp
		}
	}
	if st.Best.Seeks > worst.Seeks {
		t.Errorf("best order did %d seeks, worst random %d", st.Best.Seeks, worst.Seeks)
	}
	var buf bytes.Buffer
	st.Render(&buf)
	if !strings.Contains(buf.String(), "correlation") {
		t.Error("render missing correlation")
	}
}

func TestScalabilityLoadDrops(t *testing.T) {
	s := tinySuite()
	defer s.Close()
	sc, err := s.Scalability("Q1", 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Rows) != 2 {
		t.Fatalf("%d rows", len(sc.Rows))
	}
	if sc.Rows[1].SpeedupHC <= 1 {
		t.Errorf("HC per-worker load speedup at 8 workers = %.2f, want > 1", sc.Rows[1].SpeedupHC)
	}
	if sc.Rows[1].SortedPerWorker >= sc.Rows[0].SortedPerWorker {
		t.Errorf("sorted/worker should drop: %d at 2 workers, %d at 8",
			sc.Rows[0].SortedPerWorker, sc.Rows[1].SortedPerWorker)
	}
	var buf bytes.Buffer
	sc.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestFigure11Ordering(t *testing.T) {
	s := tinySuite()
	defer s.Close()
	f, err := s.Figure11([]string{"Q1", "Q2"}, []int{8, 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 4 {
		t.Fatalf("%d rows", len(f.Rows))
	}
	for _, r := range f.Rows {
		if r.OurAlg > r.RoundDn+1e-9 {
			t.Errorf("%s N=%d: our alg ratio %.3f worse than round-down %.3f",
				r.Query, r.Workers, r.OurAlg, r.RoundDn)
		}
		if r.Random < r.OurAlg {
			t.Errorf("%s N=%d: random allocation %.3f should not beat our alg %.3f",
				r.Query, r.Workers, r.Random, r.OurAlg)
		}
	}
	var buf bytes.Buffer
	f.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestUtilizationProfiles(t *testing.T) {
	s := tinySuite()
	defer s.Close()
	u, err := s.Utilization("Q1", planner.HCTJ, planner.BRTJ)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Profiles) != 2 {
		t.Fatalf("%d profiles", len(u.Profiles))
	}
	for _, p := range u.Profiles {
		if len(p.Busy) != 8 {
			t.Errorf("%v: %d workers profiled", p.Config, len(p.Busy))
		}
		if p.Skew < 1 {
			t.Errorf("%v: skew %.2f below 1", p.Config, p.Skew)
		}
	}
	var buf bytes.Buffer
	u.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestSemijoinStudy(t *testing.T) {
	s := tinySuite()
	defer s.Close()
	st, err := s.SemijoinStudy("Q7")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Rows) != 1 {
		t.Fatalf("%d rows", len(st.Rows))
	}
	r := st.Rows[0]
	if r.SemiRounds < 3 {
		t.Errorf("semijoin plan used %d rounds, want several", r.SemiRounds)
	}
	if r.SemiShuffled == 0 {
		t.Error("semijoin plan shuffled nothing")
	}
	var buf bytes.Buffer
	st.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestRunConfigFailOutcomes(t *testing.T) {
	s := tinySuite()
	s.MemLimitTuples = 100
	defer s.Close()
	out, err := s.RunConfig("Q1", planner.RSTJ, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Failed || out.FailWhy != "OOM" {
		t.Fatalf("outcome = %+v, want OOM failure", out)
	}
}
