package order

import (
	"math/rand"
	"testing"

	"parajoin/internal/core"
	"parajoin/internal/ljoin"
	"parajoin/internal/rel"
)

func randGraph(name string, n, nodes int, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := rel.New(name, "a", "b")
	for i := 0; i < n; i++ {
		r.AppendRow(rng.Int63n(int64(nodes)), rng.Int63n(int64(nodes)))
	}
	return r.Dedup()
}

func pathQuery() *core.Query {
	return core.MustQuery("Path", nil, []core.Atom{
		core.NewAtom("R", core.V("x"), core.V("y")),
		core.NewAtom("S", core.V("y"), core.V("z")),
	})
}

func TestCostFirstStepIsMinDistinct(t *testing.T) {
	q := pathQuery()
	r := rel.New("R", "a", "b") // 3 distinct x, 2 distinct y
	r.AppendRow(1, 10)
	r.AppendRow(2, 10)
	r.AppendRow(3, 20)
	s := rel.New("S", "a", "b") // 4 distinct y, 1 distinct z
	s.AppendRow(10, 100)
	s.AppendRow(20, 100)
	s.AppendRow(30, 100)
	s.AppendRow(40, 100)
	e, err := NewEstimator(q, map[string]*rel.Relation{"R": r, "S": s})
	if err != nil {
		t.Fatal(err)
	}
	// Order y ≺ x ≺ z: S_1 = min(V(R,y)=2, V(S,y)=4) = 2.
	// S_2 (x, only in R): V(R,{x,y})/V(R,{y}) = 3/2.
	// S_3 (z, only in S): V(S,{y,z})/V(S,{y}) = 4/4 = 1.
	// Cost = 2 + 2*1.5 + 2*1.5*1 = 8.
	c, err := e.Cost([]core.Var{"y", "x", "z"})
	if err != nil {
		t.Fatal(err)
	}
	if c != 8 {
		t.Fatalf("Cost = %f, want 8", c)
	}
}

func TestCostErrors(t *testing.T) {
	q := pathQuery()
	rels := map[string]*rel.Relation{"R": randGraph("R", 20, 5, 1), "S": randGraph("S", 20, 5, 2)}
	e, err := NewEstimator(q, rels)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Cost([]core.Var{"x", "y"}); err == nil {
		t.Error("short order should error")
	}
	if _, err := e.Cost([]core.Var{"x", "y", "w"}); err == nil {
		t.Error("unknown variable should error")
	}
	if _, err := NewEstimator(q, map[string]*rel.Relation{"R": rels["R"]}); err == nil {
		t.Error("missing relation should error")
	}
}

func TestBestExhaustiveMatchesManualScan(t *testing.T) {
	q := core.MustQuery("Triangle", nil, []core.Atom{
		core.NewAtom("R", core.V("x"), core.V("y")),
		core.NewAtom("S", core.V("y"), core.V("z")),
		core.NewAtom("T", core.V("z"), core.V("x")),
	})
	rels := map[string]*rel.Relation{
		"R": randGraph("R", 200, 30, 3),
		"S": randGraph("S", 200, 30, 4),
		"T": randGraph("T", 200, 30, 5),
	}
	e, err := NewEstimator(q, rels)
	if err != nil {
		t.Fatal(err)
	}
	best, bestCost, err := e.Best(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Manually scan all 6 orders.
	all := [][]core.Var{
		{"x", "y", "z"}, {"x", "z", "y"}, {"y", "x", "z"},
		{"y", "z", "x"}, {"z", "x", "y"}, {"z", "y", "x"},
	}
	manual := 1e308
	for _, ord := range all {
		c, err := e.Cost(ord)
		if err != nil {
			t.Fatal(err)
		}
		if c < manual {
			manual = c
		}
	}
	if bestCost != manual {
		t.Fatalf("Best cost %f, manual scan %f (order %v)", bestCost, manual, best)
	}
}

func TestBestSampledWhenTooManyOrders(t *testing.T) {
	// 8 variables -> 40320 orders; cap enumeration at 50 samples.
	atoms := []core.Atom{
		core.NewAtom("A", core.V("v1"), core.V("v2")),
		core.NewAtom("B", core.V("v2"), core.V("v3")),
		core.NewAtom("C", core.V("v3"), core.V("v4")),
		core.NewAtom("D", core.V("v4"), core.V("v5")),
		core.NewAtom("E", core.V("v5"), core.V("v6")),
		core.NewAtom("F", core.V("v6"), core.V("v7")),
		core.NewAtom("G", core.V("v7"), core.V("v8")),
	}
	q := core.MustQuery("Chain", nil, atoms)
	rels := map[string]*rel.Relation{}
	for i, a := range q.Atoms {
		rels[a.Alias] = randGraph(a.Relation, 50, 10, int64(i))
	}
	e, err := NewEstimator(q, rels)
	if err != nil {
		t.Fatal(err)
	}
	best, cost, err := e.Best(50, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(best) != 8 || cost <= 0 {
		t.Fatalf("best = %v cost %f", best, cost)
	}
	// Determinism with the same seed.
	best2, cost2, _ := e.Best(50, 7)
	if cost2 != cost {
		t.Fatalf("sampled Best not deterministic: %f vs %f (%v vs %v)", cost, cost2, best, best2)
	}
}

func TestRandomOrdersShape(t *testing.T) {
	q := pathQuery()
	e, err := NewEstimator(q, map[string]*rel.Relation{
		"R": randGraph("R", 20, 5, 1), "S": randGraph("S", 20, 5, 2)})
	if err != nil {
		t.Fatal(err)
	}
	orders := e.RandomOrders(20, 3)
	if len(orders) != 20 {
		t.Fatalf("got %d orders", len(orders))
	}
	for _, ord := range orders {
		if len(ord) != 3 {
			t.Fatalf("order %v wrong length", ord)
		}
		seen := map[core.Var]bool{}
		for _, v := range ord {
			seen[v] = true
		}
		if len(seen) != 3 {
			t.Fatalf("order %v has repeats", ord)
		}
	}
}

// The model's purpose: its cost ranking should correlate with the actual
// number of seeks the Tributary join performs. Build a skewed instance
// where the order matters and check that the cheapest predicted order does
// at most as many seeks as the most expensive predicted order.
func TestCostCorrelatesWithActualSeeks(t *testing.T) {
	q := core.MustQuery("Q", nil, []core.Atom{
		core.NewAtom("Big", core.V("x"), core.V("y")),
		core.NewAtom("Small", core.V("y"), core.V("z")),
	})
	big := randGraph("Big", 5000, 2000, 11)
	small := randGraph("Small", 30, 10, 12)
	rels := map[string]*rel.Relation{"Big": big, "Small": small}
	e, err := NewEstimator(q, rels)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		cost  float64
		seeks int64
	}
	var results []result
	for _, ord := range [][]core.Var{
		{"y", "z", "x"}, {"x", "y", "z"}, {"z", "y", "x"},
	} {
		c, err := e.Cost(ord)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := ljoin.Evaluate(q, rels, ord)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, result{c, st.Seeks})
	}
	// Find predicted-best and predicted-worst; actual seeks must agree on
	// the direction.
	bi, wi := 0, 0
	for i, r := range results {
		if r.cost < results[bi].cost {
			bi = i
		}
		if r.cost > results[wi].cost {
			wi = i
		}
	}
	if results[bi].seeks > results[wi].seeks {
		t.Fatalf("predicted best order did %d seeks, predicted worst %d",
			results[bi].seeks, results[wi].seeks)
	}
}
