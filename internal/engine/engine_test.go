package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"parajoin/internal/core"
	"parajoin/internal/hypercube"
	"parajoin/internal/ljoin"
	"parajoin/internal/rel"
	"parajoin/internal/shares"
)

func randGraph(name string, n, nodes int, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := rel.New(name, "src", "dst")
	for i := 0; i < n; i++ {
		r.AppendRow(rng.Int63n(int64(nodes)), rng.Int63n(int64(nodes)))
	}
	return r.Dedup()
}

func triangleQuery() *core.Query {
	return core.MustQuery("Triangle", nil, []core.Atom{
		core.NewAtom("R", core.V("x"), core.V("y")),
		core.NewAtom("S", core.V("y"), core.V("z")),
		core.NewAtom("T", core.V("z"), core.V("x")),
	})
}

// shuffleGather builds a plan that hash-shuffles table and returns it.
func shuffleGather(table string, cols []string) *Plan {
	return &Plan{
		Exchanges: []ExchangeSpec{{
			ID: 0, Name: "shuffle " + table, Input: Scan{Table: table},
			Kind: RouteHash, HashCols: cols, Seed: 1,
		}},
		Root: Recv{Exchange: 0, Schema: rel.Schema{"src", "dst"}},
	}
}

func TestHashShufflePreservesBag(t *testing.T) {
	c := NewCluster(8)
	defer c.Close()
	r := randGraph("R", 2000, 300, 1)
	c.Load(r)

	got, report, err := c.Run(context.Background(), shuffleGather("R", []string{"dst"}))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) {
		t.Fatalf("shuffle changed the bag: %d vs %d tuples", got.Cardinality(), r.Cardinality())
	}
	if report.TotalTuplesShuffled() != int64(r.Cardinality()) {
		t.Fatalf("shuffled %d tuples, want %d", report.TotalTuplesShuffled(), r.Cardinality())
	}
}

func TestHashShuffleColocatesKeys(t *testing.T) {
	c := NewCluster(4)
	defer c.Close()
	r := randGraph("R", 500, 50, 2)
	c.Load(r)

	frags, _, err := c.RunFragments(context.Background(), shuffleGather("R", []string{"dst"}))
	if err != nil {
		t.Fatal(err)
	}
	where := make(map[int64]int)
	for w, f := range frags {
		for _, tp := range f.Tuples {
			if prev, ok := where[tp[1]]; ok && prev != w {
				t.Fatalf("key %d on workers %d and %d", tp[1], prev, w)
			}
			where[tp[1]] = w
		}
	}
}

func TestBroadcastReplicatesEverywhere(t *testing.T) {
	c := NewCluster(4)
	defer c.Close()
	r := randGraph("R", 100, 30, 3)
	c.Load(r)

	plan := &Plan{
		Exchanges: []ExchangeSpec{{
			ID: 0, Name: "broadcast R", Input: Scan{Table: "R"}, Kind: RouteBroadcast,
		}},
		Root: Recv{Exchange: 0, Schema: rel.Schema{"src", "dst"}},
	}
	frags, report, err := c.RunFragments(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	for w, f := range frags {
		if !f.Equal(r) {
			t.Fatalf("worker %d received %d tuples, want the full %d", w, f.Cardinality(), r.Cardinality())
		}
	}
	if want := int64(4 * r.Cardinality()); report.TotalTuplesShuffled() != want {
		t.Fatalf("shuffled %d, want %d", report.TotalTuplesShuffled(), want)
	}
}

func TestSelectAndProject(t *testing.T) {
	c := NewCluster(3)
	defer c.Close()
	r := rel.New("R", "a", "b")
	for i := int64(0); i < 30; i++ {
		r.AppendRow(i, i%3)
	}
	c.Load(r)

	plan := &Plan{
		Exchanges: []ExchangeSpec{{
			ID: 0, Input: Project{
				Input: Select{Input: Scan{Table: "R"},
					Filters: []ColFilter{{Left: "b", Op: core.Eq, Const: 1}}},
				Cols: []string{"a"}, As: []string{"x"},
			},
			Kind: RouteHash, HashCols: []string{"x"},
		}},
		Root: Recv{Exchange: 0, Schema: rel.Schema{"x"}},
	}
	got, _, err := c.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 10 {
		t.Fatalf("got %d tuples, want 10", got.Cardinality())
	}
	for _, tp := range got.Tuples {
		if tp[0]%3 != 1 {
			t.Fatalf("tuple %v should have been filtered", tp)
		}
	}
}

func TestProjectDedup(t *testing.T) {
	c := NewCluster(2)
	defer c.Close()
	r := rel.New("R", "a", "b")
	for i := int64(0); i < 40; i++ {
		r.AppendRow(i%4, i)
	}
	c.Load(r)
	plan := &Plan{
		Exchanges: []ExchangeSpec{{
			// Shuffle first so equal keys meet, then dedup at the consumer.
			ID: 0, Input: Scan{Table: "R"}, Kind: RouteHash, HashCols: []string{"a"},
		}},
		Root: Project{Input: Recv{Exchange: 0, Schema: rel.Schema{"a", "b"}},
			Cols: []string{"a"}, Dedup: true},
	}
	got, _, err := c.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 4 {
		t.Fatalf("dedup left %d tuples, want 4", got.Cardinality())
	}
}

// rsJoinPlan builds the regular-shuffle + symmetric-hash-join plan for
// R(x,y) ⋈ S(y,z).
func rsJoinPlan() *Plan {
	return &Plan{
		Exchanges: []ExchangeSpec{
			{ID: 0, Name: "R->h(y)", Input: Project{Input: Scan{Table: "R"}, Cols: []string{"src", "dst"}, As: []string{"x", "y"}},
				Kind: RouteHash, HashCols: []string{"y"}, Seed: 7},
			{ID: 1, Name: "S->h(y)", Input: Project{Input: Scan{Table: "S"}, Cols: []string{"src", "dst"}, As: []string{"y", "z"}},
				Kind: RouteHash, HashCols: []string{"y"}, Seed: 7},
		},
		Root: HashJoin{
			Left:     Recv{Exchange: 0, Schema: rel.Schema{"x", "y"}},
			Right:    Recv{Exchange: 1, Schema: rel.Schema{"y", "z"}},
			LeftCols: []string{"y"}, RightCols: []string{"y"},
		},
	}
}

func TestHashJoinPlanMatchesNaive(t *testing.T) {
	c := NewCluster(6)
	defer c.Close()
	r := randGraph("R", 400, 40, 4)
	s := randGraph("S", 400, 40, 5)
	c.Load(r)
	c.Load(s)

	got, _, err := c.Run(context.Background(), rsJoinPlan())
	if err != nil {
		t.Fatal(err)
	}
	q := core.MustQuery("Path", nil, []core.Atom{
		core.NewAtom("R", core.V("x"), core.V("y")),
		core.NewAtom("S", core.V("y"), core.V("z")),
	})
	want, _ := ljoin.NaiveEvaluate(q, map[string]*rel.Relation{"R": r, "S": s})
	got.Dedup()
	if !got.Equal(want) {
		t.Fatalf("distributed join: %d tuples, naive: %d", got.Cardinality(), want.Cardinality())
	}
}

// rsTrianglePlan is the full left-deep RS_HJ plan for the triangle query:
// shuffle R,S on y, join, shuffle the intermediate on (z,x)... here on z
// and x via composite key with T, join again.
func rsTrianglePlan() *Plan {
	return &Plan{
		Exchanges: []ExchangeSpec{
			{ID: 0, Name: "R->h(y)", Input: Project{Input: Scan{Table: "R"}, Cols: []string{"src", "dst"}, As: []string{"x", "y"}},
				Kind: RouteHash, HashCols: []string{"y"}, Seed: 7},
			{ID: 1, Name: "S->h(y)", Input: Project{Input: Scan{Table: "S"}, Cols: []string{"src", "dst"}, As: []string{"y", "z"}},
				Kind: RouteHash, HashCols: []string{"y"}, Seed: 7},
			{ID: 2, Name: "RS->h(z,x)", Input: HashJoin{
				Left:     Recv{Exchange: 0, Schema: rel.Schema{"x", "y"}},
				Right:    Recv{Exchange: 1, Schema: rel.Schema{"y", "z"}},
				LeftCols: []string{"y"}, RightCols: []string{"y"},
			}, Kind: RouteHash, HashCols: []string{"z", "x"}, Seed: 8},
			{ID: 3, Name: "T->h(z,x)", Input: Project{Input: Scan{Table: "T"}, Cols: []string{"src", "dst"}, As: []string{"z", "x2"}},
				Kind: RouteHash, HashCols: []string{"z", "x2"}, Seed: 8},
		},
		Root: HashJoin{
			Left:     Recv{Exchange: 2, Schema: rel.Schema{"x", "y", "z"}},
			Right:    Recv{Exchange: 3, Schema: rel.Schema{"z", "x2"}},
			LeftCols: []string{"z", "x"}, RightCols: []string{"z", "x2"},
		},
	}
}

func TestPipelinedTwoStagePlanMatchesNaive(t *testing.T) {
	c := NewCluster(8)
	defer c.Close()
	r := randGraph("R", 600, 60, 6)
	s := randGraph("S", 600, 60, 7)
	u := randGraph("T", 600, 60, 8)
	c.Load(r)
	c.Load(s)
	c.Load(u)

	got, report, err := c.Run(context.Background(), rsTrianglePlan())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ljoin.NaiveEvaluate(triangleQuery(), map[string]*rel.Relation{"R": r, "S": s, "T": u})
	got.Dedup()
	if !got.Equal(want) {
		t.Fatalf("RS_HJ triangle: %d tuples, naive: %d", got.Cardinality(), want.Cardinality())
	}
	if len(report.Exchanges) != 4 {
		t.Fatalf("report has %d exchanges, want 4", len(report.Exchanges))
	}
	// The intermediate shuffle must carry the join's output size.
	if report.Exchanges[2].TuplesSent == 0 {
		t.Fatal("intermediate exchange reported no traffic")
	}
}

// hcTrianglePlan builds the HyperCube + Tributary plan for the triangle,
// or for any query whose atoms each scan a binary (src, dst) table named
// after the atom's relation. The join order is the grid's variable order.
func hcTrianglePlan(q *core.Query, cfg shares.Config, workers int) *Plan {
	grid := hypercube.NewGrid(cfg)
	cellMap := make([]int, grid.Cells())
	for i := range cellMap {
		cellMap[i] = i % workers
	}
	plan := &Plan{}
	inputs := make(map[string]Node, len(q.Atoms))
	for i, atom := range q.Atoms {
		plan.Exchanges = append(plan.Exchanges, ExchangeSpec{
			ID: i, Name: "HCS " + atom.String(), Input: Scan{Table: atom.Relation},
			Kind: RouteHyperCube, Grid: grid, Atom: atom, CellMap: cellMap,
		})
		inputs[atom.Alias] = Recv{Exchange: i, Schema: rel.Schema{"src", "dst"}}
	}
	plan.Root = Tributary{Query: q, Inputs: inputs, Order: cfg.Vars}
	return plan
}

func TestHyperCubeTributaryTriangleMatchesNaive(t *testing.T) {
	q := triangleQuery()
	r := randGraph("R", 500, 50, 9)
	s := randGraph("S", 500, 50, 10)
	u := randGraph("T", 500, 50, 11)
	want, _ := ljoin.NaiveEvaluate(q, map[string]*rel.Relation{"R": r, "S": s, "T": u})

	for _, workers := range []int{1, 3, 8} {
		c := NewCluster(workers)
		c.Load(r)
		c.Load(s)
		c.Load(u)
		cfg := shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{2, 2, 2}}
		got, report, err := c.Run(context.Background(), hcTrianglePlan(q, cfg, workers))
		c.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got.Dedup() // cells on one worker may each produce the same triangle only once; dedup across workers
		if !got.Equal(want) {
			t.Fatalf("workers=%d: HC_TJ %d tuples, naive %d", workers, got.Cardinality(), want.Cardinality())
		}
		// Every relation is replicated twice (one free dimension of size 2),
		// but same-worker cells dedup, so traffic ≤ 2×input.
		if max := int64(2 * (r.Cardinality() + s.Cardinality() + u.Cardinality())); report.TotalTuplesShuffled() > max {
			t.Fatalf("workers=%d: shuffled %d > bound %d", workers, report.TotalTuplesShuffled(), max)
		}
	}
}

func TestMemoryLimitFails(t *testing.T) {
	c := NewCluster(2)
	defer c.Close()
	c.MaxLocalTuples = 50
	r := randGraph("R", 500, 20, 12)
	s := randGraph("S", 500, 20, 13)
	c.Load(r)
	c.Load(s)

	_, _, err := c.Run(context.Background(), rsJoinPlan())
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestMissingTableError(t *testing.T) {
	c := NewCluster(2)
	defer c.Close()
	plan := shuffleGather("Nope", []string{"dst"})
	if _, _, err := c.Run(context.Background(), plan); err == nil {
		t.Fatal("scan of a missing table should fail")
	}
}

func TestPlanValidation(t *testing.T) {
	c := NewCluster(2)
	defer c.Close()
	bad := &Plan{Root: Recv{Exchange: 9, Schema: rel.Schema{"a"}}}
	if _, _, err := c.Run(context.Background(), bad); err == nil {
		t.Fatal("Recv without exchange should fail validation")
	}
	dup := &Plan{
		Exchanges: []ExchangeSpec{
			{ID: 0, Input: Scan{Table: "X"}},
			{ID: 0, Input: Scan{Table: "X"}},
		},
		Root: Recv{Exchange: 0, Schema: rel.Schema{"a"}},
	}
	if _, _, err := c.Run(context.Background(), dup); err == nil {
		t.Fatal("duplicate exchange ids should fail validation")
	}
	if err := (&Plan{}).Validate(); err == nil {
		t.Fatal("plan without root should fail validation")
	}
}

func TestContextCancellation(t *testing.T) {
	c := NewCluster(4)
	defer c.Close()
	c.Load(randGraph("R", 5000, 100, 14))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Run(ctx, shuffleGather("R", []string{"dst"})); err == nil {
		t.Fatal("canceled context should abort the run")
	}
}

func TestSkewMetrics(t *testing.T) {
	// All tuples share one key: consumer skew must be the worker count.
	c := NewCluster(4)
	defer c.Close()
	r := rel.New("R", "src", "dst")
	for i := int64(0); i < 400; i++ {
		r.AppendRow(i, 42)
	}
	c.Load(r)
	_, report, err := c.Run(context.Background(), shuffleGather("R", []string{"dst"}))
	if err != nil {
		t.Fatal(err)
	}
	ex := report.Exchanges[0]
	if ex.ConsumerSkew != 4 {
		t.Fatalf("consumer skew = %f, want 4 (all tuples on one worker)", ex.ConsumerSkew)
	}
	if ex.ProducerSkew > 1.01 {
		t.Fatalf("producer skew = %f, want ~1 (round-robin input)", ex.ProducerSkew)
	}
}

func TestAmbiguousJoinSchemaRejected(t *testing.T) {
	c := NewCluster(2)
	defer c.Close()
	r := randGraph("R", 10, 5, 15)
	c.Load(r)
	plan := &Plan{
		Exchanges: []ExchangeSpec{
			{ID: 0, Input: Scan{Table: "R"}, Kind: RouteHash, HashCols: []string{"src"}},
			{ID: 1, Input: Scan{Table: "R"}, Kind: RouteHash, HashCols: []string{"src"}},
		},
		Root: HashJoin{
			Left:     Recv{Exchange: 0, Schema: rel.Schema{"src", "dst"}},
			Right:    Recv{Exchange: 1, Schema: rel.Schema{"src", "other"}},
			LeftCols: []string{"src"}, RightCols: []string{"src"},
		},
	}
	// Output would carry two "dst"-free columns but duplicate... actually
	// left(src,dst) + right(other) = src,dst,other: fine. Make a true clash:
	plan.Root = HashJoin{
		Left:     Recv{Exchange: 0, Schema: rel.Schema{"src", "dst"}},
		Right:    Recv{Exchange: 1, Schema: rel.Schema{"k", "dst"}},
		LeftCols: []string{"src"}, RightCols: []string{"k"},
	}
	if _, _, err := c.Run(context.Background(), plan); err == nil {
		t.Fatal("duplicate output column should be rejected")
	}
}

func TestRunFragmentsPerWorkerResults(t *testing.T) {
	c := NewCluster(3)
	defer c.Close()
	r := randGraph("R", 90, 30, 16)
	c.Load(r)
	frags, _, err := c.RunFragments(context.Background(), shuffleGather("R", []string{"src"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 3 {
		t.Fatalf("got %d fragments", len(frags))
	}
	total := 0
	for _, f := range frags {
		total += f.Cardinality()
	}
	if total != r.Cardinality() {
		t.Fatalf("fragments hold %d tuples, want %d", total, r.Cardinality())
	}
}

func TestClusterStorage(t *testing.T) {
	c := NewCluster(4)
	defer c.Close()
	r := randGraph("R", 101, 20, 17)
	c.Load(r)
	if got := c.Stored("R"); !got.Equal(r) {
		t.Fatal("Stored did not reassemble the relation")
	}
	rep := randGraph("Rep", 10, 5, 18)
	c.LoadReplicated(rep)
	for w := 0; w < 4; w++ {
		if c.Fragment(w, "Rep").Cardinality() != rep.Cardinality() {
			t.Fatalf("worker %d missing replicated relation", w)
		}
	}
	c.Drop("R")
	if c.Stored("R") != nil {
		t.Fatal("Drop did not remove the relation")
	}
}
