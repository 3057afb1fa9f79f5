package planner

import (
	"context"
	"math/rand"
	"testing"

	"parajoin/internal/core"
	"parajoin/internal/engine"
	"parajoin/internal/ljoin"
	"parajoin/internal/rel"
	"parajoin/internal/stats"
)

func randGraph(name string, n, nodes int, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := rel.New(name, "src", "dst")
	for i := 0; i < n; i++ {
		r.AppendRow(rng.Int63n(int64(nodes)), rng.Int63n(int64(nodes)))
	}
	return r.Dedup()
}

// testDB bundles a database, planner, and cluster.
type testDB struct {
	planner  *Planner
	cluster  *engine.Cluster
	naiveRel map[string]*rel.Relation // by base name, for the oracle
}

func newTestDB(t *testing.T, workers int, rels ...*rel.Relation) *testDB {
	t.Helper()
	db := &testDB{
		cluster:  engine.NewCluster(workers),
		naiveRel: map[string]*rel.Relation{},
	}
	relMap := map[string]*rel.Relation{}
	for _, r := range rels {
		db.cluster.Load(r)
		relMap[r.Name] = r
		db.naiveRel[r.Name] = r
	}
	db.planner = &Planner{
		Workers:   workers,
		Catalog:   stats.NewCatalog(rels...),
		Relations: relMap,
		MaxOrders: 720,
	}
	t.Cleanup(func() { db.cluster.Close() })
	return db
}

// runAll plans and executes every configuration (plus semijoin when the
// query is acyclic) and checks each against the naive oracle.
func (db *testDB) runAll(t *testing.T, q *core.Query) {
	t.Helper()
	aliasRels := map[string]*rel.Relation{}
	for _, a := range q.Atoms {
		aliasRels[a.Alias] = db.naiveRel[a.Relation]
	}
	want, err := ljoin.NaiveEvaluate(q, aliasRels)
	if err != nil {
		t.Fatal(err)
	}

	configs := append([]PlanConfig(nil), Configs...)
	if core.IsAcyclic(q) {
		configs = append(configs, SemiJoin)
	}
	for _, cfg := range configs {
		res, err := db.planner.Plan(q, cfg)
		if err != nil {
			t.Fatalf("%v: planning: %v", cfg, err)
		}
		got, report, err := db.cluster.RunRounds(context.Background(), res.Rounds)
		if err != nil {
			t.Fatalf("%v: running: %v", cfg, err)
		}
		got.Dedup()
		if !got.Equal(want) {
			t.Errorf("%v: got %d tuples, naive oracle has %d", cfg, got.Cardinality(), want.Cardinality())
		}
		if report.TotalTuplesShuffled() == 0 && db.planner.Workers > 1 && cfg != BRHJ && cfg != BRTJ {
			t.Errorf("%v: no tuples shuffled on a %d-worker cluster", cfg, db.planner.Workers)
		}
	}
}

func TestTriangleAllConfigs(t *testing.T) {
	q := core.MustParseRule("Triangle(x,y,z) :- R(x,y), S(y,z), T(z,x)", nil)
	db := newTestDB(t, 5,
		randGraph("R", 400, 40, 1),
		randGraph("S", 400, 40, 2),
		randGraph("T", 400, 40, 3),
	)
	db.runAll(t, q)
}

func TestTriangleSelfJoinAllConfigs(t *testing.T) {
	q := core.MustParseRule("Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)", nil)
	db := newTestDB(t, 4, randGraph("E", 500, 45, 4))
	db.runAll(t, q)
}

func TestPathAcyclicAllConfigsAndSemijoin(t *testing.T) {
	q := core.MustParseRule("P(x,y,z,w) :- R(x,y), S(y,z), T(z,w)", nil)
	db := newTestDB(t, 4,
		randGraph("R", 250, 30, 5),
		randGraph("S", 250, 30, 6),
		randGraph("T", 250, 30, 7),
	)
	db.runAll(t, q)
}

func TestProjectionQueryWithConstants(t *testing.T) {
	// Q7-style: star with a constant selection and a range filter.
	name := rel.New("Name", "id", "code")
	name.AppendRow(100, 7)
	name.AppendRow(101, 8)
	name.AppendRow(102, 7)
	award := randGraph("Award", 300, 50, 8).Rename("Award", "h", "aw")
	award = award.Select("Award", func(tp rel.Tuple) bool { return true })
	// Remap aw values into {100,101,102} so the join is non-empty.
	for _, tp := range award.Tuples {
		tp[1] = 100 + tp[1]%3
	}
	actor := randGraph("Actor", 300, 50, 9).Rename("Actor", "h", "a")
	year := randGraph("Year", 300, 50, 10).Rename("Year", "h", "y")
	for _, tp := range year.Tuples {
		tp[1] = 1980 + tp[1]%30
	}

	q := core.MustQuery("Winners", []core.Var{"a"},
		[]core.Atom{
			core.NewAtom("Name", core.V("aw"), core.C(7)),
			core.NewAtom("Award", core.V("h"), core.V("aw")),
			core.NewAtom("Actor", core.V("h"), core.V("a")),
			core.NewAtom("Year", core.V("h"), core.V("y")),
		},
		core.Filter{Left: "y", Op: core.Ge, Right: core.C(1990)},
		core.Filter{Left: "y", Op: core.Lt, Right: core.C(2000)},
	)
	db := newTestDB(t, 4, name, award, actor, year)
	db.runAll(t, q)
}

func TestVarVarFilterAllConfigs(t *testing.T) {
	q := core.MustQuery("Q", nil,
		[]core.Atom{
			core.NewAtom("R", core.V("x"), core.V("f1")),
			core.NewAtom("S", core.V("x"), core.V("f2")),
		},
		core.Filter{Left: "f1", Op: core.Gt, Right: core.V("f2")},
	)
	db := newTestDB(t, 3,
		randGraph("R", 200, 25, 11),
		randGraph("S", 200, 25, 12),
	)
	db.runAll(t, q)
}

func TestCliqueFourAllConfigs(t *testing.T) {
	q := core.MustParseRule(
		"C4(x,y,z,p) :- E(x,y), E(y,z), E(z,p), E(p,x), E(x,z), E(y,p)", nil)
	db := newTestDB(t, 4, randGraph("E", 300, 25, 13))
	db.runAll(t, q)
}

func TestSemijoinRejectsCyclic(t *testing.T) {
	q := core.MustParseRule("Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)", nil)
	db := newTestDB(t, 2, randGraph("E", 50, 10, 14))
	if _, err := db.planner.Plan(q, SemiJoin); err == nil {
		t.Fatal("semijoin plan for a cyclic query should fail")
	}
}

func TestHCPlanConfigShape(t *testing.T) {
	q := core.MustParseRule("Triangle(x,y,z) :- R(x,y), S(y,z), T(z,x)", nil)
	db := newTestDB(t, 8,
		randGraph("R", 400, 50, 15),
		randGraph("S", 400, 50, 16),
		randGraph("T", 400, 50, 17),
	)
	res, err := db.planner.Plan(q, HCTJ)
	if err != nil {
		t.Fatal(err)
	}
	if res.HC.Cells() == 0 || res.HC.Cells() > 8 {
		t.Fatalf("HC config %s uses %d cells for 8 workers", res.HC, res.HC.Cells())
	}
	if len(res.Order) != 3 {
		t.Fatalf("TJ order %v should cover 3 variables", res.Order)
	}
	if len(res.Plan.Exchanges) != 3 {
		t.Fatalf("HC plan has %d exchanges, want one per atom", len(res.Plan.Exchanges))
	}
}

func TestRSPlanSkewVsHC(t *testing.T) {
	// A power-law-ish graph: one hub node with high in-degree. The regular
	// shuffle hashing on the join attribute must show higher consumer skew
	// than the HyperCube shuffle.
	rng := rand.New(rand.NewSource(18))
	e := rel.New("E", "src", "dst")
	for i := 0; i < 3000; i++ {
		dst := rng.Int63n(100)
		if i%3 == 0 {
			dst = 0 // hub
		}
		e.AppendRow(rng.Int63n(1000), dst)
	}
	e.Dedup()
	q := core.MustParseRule("Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)", nil)
	db := newTestDB(t, 8, e)

	resRS, err := db.planner.Plan(q, RSHJ)
	if err != nil {
		t.Fatal(err)
	}
	_, repRS, err := db.cluster.RunRounds(context.Background(), resRS.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	resHC, err := db.planner.Plan(q, HCTJ)
	if err != nil {
		t.Fatal(err)
	}
	_, repHC, err := db.cluster.RunRounds(context.Background(), resHC.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	if repHC.MaxConsumerSkew() >= repRS.MaxConsumerSkew() {
		t.Fatalf("HC skew %.2f should be below RS skew %.2f",
			repHC.MaxConsumerSkew(), repRS.MaxConsumerSkew())
	}
}

func TestMemoryLimitFailThroughPlanner(t *testing.T) {
	q := core.MustParseRule("Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)", nil)
	e := randGraph("E", 2000, 60, 19)
	db := newTestDB(t, 2, e)
	db.cluster.MaxLocalTuples = 100

	res, err := db.planner.Plan(q, RSTJ)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.cluster.RunRounds(context.Background(), res.Rounds); err == nil {
		t.Fatal("tiny memory budget should make RS_TJ fail")
	}
}

func TestGreedyOrderStartsSmall(t *testing.T) {
	// The constant-selected atom must come first in the greedy order.
	name := rel.New("Name", "id", "code")
	for i := int64(0); i < 1000; i++ {
		name.AppendRow(i, i%500)
	}
	big := randGraph("Big", 5000, 400, 20).Rename("Big", "id", "x")
	q := core.MustQuery("Q", []core.Var{"x"}, []core.Atom{
		core.NewAtom("Big", core.V("id"), core.V("x")),
		core.NewAtom("Name", core.V("id"), core.C(7)),
	})
	db := newTestDB(t, 2, name, big)
	res, err := db.planner.Plan(q, RSHJ)
	if err != nil {
		t.Fatal(err)
	}
	if res.JoinOrder[0] != 1 {
		t.Fatalf("join order %v should start with the selected Name atom", res.JoinOrder)
	}
	db.runAll(t, q)
}

func TestPlannerErrors(t *testing.T) {
	q := core.MustParseRule("Q(x) :- R(x)", nil)
	p := &Planner{Workers: 0, Catalog: stats.NewCatalog()}
	if _, err := p.Plan(q, RSHJ); err == nil {
		t.Error("zero workers should fail")
	}
	p = &Planner{Workers: 2}
	if _, err := p.Plan(q, RSHJ); err == nil {
		t.Error("missing catalog should fail")
	}
	p = &Planner{Workers: 2, Catalog: stats.NewCatalog()}
	if _, err := p.Plan(q, RSHJ); err == nil {
		t.Error("unknown relation should fail")
	}
}

func TestSingleWorkerAllConfigs(t *testing.T) {
	q := core.MustParseRule("Triangle(x,y,z) :- R(x,y), S(y,z), T(z,x)", nil)
	db := newTestDB(t, 1,
		randGraph("R", 150, 20, 21),
		randGraph("S", 150, 20, 22),
		randGraph("T", 150, 20, 23),
	)
	db.runAll(t, q)
}
