package engine

import (
	"context"
	"testing"
	"time"

	"parajoin/internal/core"
	"parajoin/internal/rel"
)

func TestRunRoundsMaterializesIntermediate(t *testing.T) {
	c := NewCluster(3)
	defer c.Close()
	r := randGraph("R", 200, 30, 50)
	c.Load(r)

	// Round 1: filter src < 15 and store; round 2: read it back gathered by
	// a hash shuffle.
	rounds := []Round{
		{
			Name: "reduce",
			Plan: &Plan{
				Exchanges: []ExchangeSpec{{
					ID: 0, Input: Select{Input: Scan{Table: "R"},
						Filters: []ColFilter{{Left: "src", Op: core.Lt, Const: 15}}},
					Kind: RouteHash, HashCols: []string{"src"},
				}},
				Root: Recv{Exchange: 0, Schema: rel.Schema{"src", "dst"}},
			},
			StoreAs: "__tmp",
		},
		{
			Name: "read",
			Plan: &Plan{
				Exchanges: []ExchangeSpec{{
					ID: 0, Input: Scan{Table: "__tmp"}, Kind: RouteHash, HashCols: []string{"dst"},
				}},
				Root: Recv{Exchange: 0, Schema: rel.Schema{"src", "dst"}},
			},
		},
	}
	got, report, err := c.RunRounds(context.Background(), rounds)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Select("want", func(tp rel.Tuple) bool { return tp[0] < 15 })
	if !got.Equal(want) {
		t.Fatalf("rounds produced %d tuples, want %d", got.Cardinality(), want.Cardinality())
	}
	// Both rounds' exchanges must appear in the merged report.
	if len(report.Exchanges) != 2 {
		t.Fatalf("merged report has %d exchanges, want 2", len(report.Exchanges))
	}
	// The temp relation must be dropped.
	if c.Stored("__tmp") != nil {
		t.Fatal("temporary relation survived RunRounds")
	}
}

func TestRunRoundsValidation(t *testing.T) {
	c := NewCluster(2)
	defer c.Close()
	if _, _, err := c.RunRounds(context.Background(), nil); err == nil {
		t.Error("empty rounds should fail")
	}
	bad := []Round{{Plan: &Plan{Root: Scan{Table: "X"}}, StoreAs: "nope"}}
	if _, _, err := c.RunRounds(context.Background(), bad); err == nil {
		t.Error("final round with StoreAs should fail")
	}
}

func TestRunRoundsErrorPropagatesAndCleansUp(t *testing.T) {
	c := NewCluster(2)
	defer c.Close()
	c.Load(randGraph("R", 50, 10, 51))
	rounds := []Round{
		{Plan: &Plan{Root: Scan{Table: "R"}}, StoreAs: "__a"},
		{Plan: &Plan{Root: Scan{Table: "Missing"}}},
	}
	if _, _, err := c.RunRounds(context.Background(), rounds); err == nil {
		t.Fatal("round reading a missing table should fail")
	}
	if c.Stored("__a") != nil {
		t.Fatal("temp relation not cleaned up after failure")
	}
}

func TestMergeReports(t *testing.T) {
	a := &Report{
		Workers: 2, WallTime: time.Second, CPUTime: time.Second,
		BusyTime: []time.Duration{1, 2}, SortTime: []time.Duration{0, 0}, JoinTime: []time.Duration{0, 0},
		HashTime: []time.Duration{0, 5}, HashBuilt: []int64{0, 6}, HashProbed: []int64{0, 8},
		Processed: []int64{10, 20}, Sorted: []int64{1, 2}, Seeks: []int64{3, 4},
		PeakResidentTuples: []int64{7, 1},
		Exchanges: []ExchangeReport{
			{Round: 0, ID: 0, Sent: []int64{5, 0}},
			{Round: 0, ID: 3, Sent: []int64{3, 4}},
		},
	}
	b := &Report{
		Workers: 2, WallTime: 2 * time.Second, CPUTime: time.Second,
		BusyTime: []time.Duration{10, 20}, SortTime: []time.Duration{1, 1}, JoinTime: []time.Duration{2, 2},
		HashTime: []time.Duration{1, 1}, HashBuilt: []int64{2, 3}, HashProbed: []int64{4, 5},
		Processed: []int64{100, 200}, Sorted: []int64{10, 20}, Seeks: []int64{30, 40},
		PeakResidentTuples: []int64{2, 9},
		Exchanges:          []ExchangeReport{{Round: 1, ID: 0, Sent: []int64{5, 6}}},
	}
	m := mergeReports(a, b)
	if m.WallTime != 3*time.Second || m.CPUTime != 2*time.Second {
		t.Fatalf("times: wall %v cpu %v", m.WallTime, m.CPUTime)
	}
	if m.BusyTime[1] != 22 || m.Processed[0] != 110 || m.Seeks[1] != 44 || m.HashTime[1] != 6 {
		t.Fatalf("counters merged wrong: %+v", m)
	}
	if m.HashBuilt[0] != 2 || m.HashBuilt[1] != 9 || m.HashProbed[0] != 4 || m.HashProbed[1] != 13 {
		t.Fatalf("hash-join rows merged wrong: built %v probed %v", m.HashBuilt, m.HashProbed)
	}
	// Rounds free their state between executions: the peak is a max.
	if m.PeakResidentTuples[0] != 7 || m.PeakResidentTuples[1] != 9 {
		t.Fatalf("peaks merged wrong: %v", m.PeakResidentTuples)
	}
	if a.Processed[0] != 10 {
		t.Fatal("merge mutated its input")
	}
	if len(m.Exchanges) != 3 {
		t.Fatalf("%d exchanges", len(m.Exchanges))
	}
	// Rows from different rounds stay distinct by Round, ids untouched.
	if e := m.Exchanges[2]; e.Round != 1 || e.ID != 0 || m.Exchanges[0].Round != 0 {
		t.Fatalf("round rows: %+v", m.Exchanges)
	}
	if m.TotalTuplesShuffled() != 23 {
		t.Fatalf("total shuffled %d", m.TotalTuplesShuffled())
	}
	// Nil handling.
	if mergeReports(nil, a) != a || mergeReports(a, nil) != a {
		t.Fatal("nil merge should return the other report")
	}
}

func TestSemiJoinPlan(t *testing.T) {
	c := NewCluster(3)
	defer c.Close()
	r := randGraph("R", 300, 40, 52)
	s := randGraph("S", 60, 40, 53)
	c.Load(r)
	c.Load(s)

	// R ⋉ S on R.dst = S.src, both shuffled on the key.
	plan := &Plan{
		Exchanges: []ExchangeSpec{
			{ID: 0, Input: Scan{Table: "R"}, Kind: RouteHash, HashCols: []string{"dst"}, Seed: 5},
			{ID: 1, Input: Project{Input: Scan{Table: "S"}, Cols: []string{"src"}, As: []string{"k"}, Dedup: true},
				Kind: RouteHash, HashCols: []string{"k"}, Seed: 5},
		},
		Root: SemiJoin{
			Left:     Recv{Exchange: 0, Schema: rel.Schema{"src", "dst"}},
			Right:    Recv{Exchange: 1, Schema: rel.Schema{"k"}},
			LeftCols: []string{"dst"}, RightCols: []string{"k"},
		},
	}
	got, _, err := c.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[int64]bool{}
	for _, tp := range s.Tuples {
		keys[tp[0]] = true
	}
	want := r.Select("want", func(tp rel.Tuple) bool { return keys[tp[1]] })
	got.Sort()
	if !got.Equal(want) {
		t.Fatalf("semijoin %d tuples, want %d", got.Cardinality(), want.Cardinality())
	}
}

func TestSemiJoinValidation(t *testing.T) {
	c := NewCluster(2)
	defer c.Close()
	c.Load(randGraph("R", 10, 5, 54))
	bad := &Plan{Root: SemiJoin{
		Left: Scan{Table: "R"}, Right: Scan{Table: "R"},
		LeftCols: []string{"src"}, RightCols: []string{"src", "dst"},
	}}
	if _, _, err := c.Run(context.Background(), bad); err == nil {
		t.Error("key arity mismatch should fail")
	}
	bad2 := &Plan{Root: SemiJoin{
		Left: Scan{Table: "R"}, Right: Scan{Table: "R"},
		LeftCols: []string{"nope"}, RightCols: []string{"src"},
	}}
	if _, _, err := c.Run(context.Background(), bad2); err == nil {
		t.Error("unknown key column should fail")
	}
}

func TestDeadlineMidRun(t *testing.T) {
	c := NewCluster(4)
	defer c.Close()
	c.Load(randGraph("E", 20000, 120, 55))
	// A heavy cyclic join under a microscopic deadline.
	plan := rsTrianglePlanOn("E")
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, _, err := c.Run(ctx, plan)
	if err == nil {
		t.Fatal("deadline should abort the run")
	}
}

// rsTrianglePlanOn builds the two-stage RS_HJ triangle plan over one
// self-joined table.
func rsTrianglePlanOn(table string) *Plan {
	proj := func(as ...string) Node {
		return Project{Input: Scan{Table: table}, Cols: []string{"src", "dst"}, As: as}
	}
	return &Plan{
		Exchanges: []ExchangeSpec{
			{ID: 0, Input: proj("x", "y"), Kind: RouteHash, HashCols: []string{"y"}, Seed: 7},
			{ID: 1, Input: proj("y", "z"), Kind: RouteHash, HashCols: []string{"y"}, Seed: 7},
			{ID: 2, Input: HashJoin{
				Left:     Recv{Exchange: 0, Schema: rel.Schema{"x", "y"}},
				Right:    Recv{Exchange: 1, Schema: rel.Schema{"y", "z"}},
				LeftCols: []string{"y"}, RightCols: []string{"y"},
			}, Kind: RouteHash, HashCols: []string{"z"}, Seed: 8},
			{ID: 3, Input: proj("z", "x2"), Kind: RouteHash, HashCols: []string{"z"}, Seed: 8},
		},
		Root: HashJoin{
			Left:     Recv{Exchange: 2, Schema: rel.Schema{"x", "y", "z"}},
			Right:    Recv{Exchange: 3, Schema: rel.Schema{"z", "x2"}},
			LeftCols: []string{"z", "x"}, RightCols: []string{"z", "x2"},
		},
	}
}
