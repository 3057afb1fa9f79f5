package ljoin

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"parajoin/internal/core"
	"parajoin/internal/rel"
)

func triangleQuery() *core.Query {
	return core.MustQuery("Triangle", nil, []core.Atom{
		core.NewAtom("R", core.V("x"), core.V("y")),
		core.NewAtom("S", core.V("y"), core.V("z")),
		core.NewAtom("T", core.V("z"), core.V("x")),
	})
}

func randGraph(name string, n, nodes int, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := rel.New(name, "a", "b")
	for i := 0; i < n; i++ {
		r.AppendRow(rng.Int63n(int64(nodes)), rng.Int63n(int64(nodes)))
	}
	return r.Dedup()
}

func TestTributaryTriangleMatchesNaive(t *testing.T) {
	q := triangleQuery()
	rels := map[string]*rel.Relation{
		"R": randGraph("R", 200, 20, 1),
		"S": randGraph("S", 200, 20, 2),
		"T": randGraph("T", 200, 20, 3),
	}
	want, err := NaiveEvaluate(q, rels)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := Evaluate(q, rels, []core.Var{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("Tributary join: %d tuples, naive: %d", got.Cardinality(), want.Cardinality())
	}
	if st.Results != int64(got.Cardinality()) {
		t.Errorf("stats.Results = %d, want %d", st.Results, got.Cardinality())
	}
	if st.Seeks == 0 && got.Cardinality() > 0 {
		t.Error("a non-trivial join should perform seeks")
	}
}

func TestTributaryAllOrdersAgree(t *testing.T) {
	q := triangleQuery()
	rels := map[string]*rel.Relation{
		"R": randGraph("R", 100, 12, 4),
		"S": randGraph("S", 100, 12, 5),
		"T": randGraph("T", 100, 12, 6),
	}
	want, _ := NaiveEvaluate(q, rels)
	orders := [][]core.Var{
		{"x", "y", "z"}, {"x", "z", "y"}, {"y", "x", "z"},
		{"y", "z", "x"}, {"z", "x", "y"}, {"z", "y", "x"},
	}
	for _, ord := range orders {
		got, _, err := Evaluate(q, rels, ord)
		if err != nil {
			t.Fatalf("order %v: %v", ord, err)
		}
		if !got.Equal(want) {
			t.Fatalf("order %v: %d tuples, want %d", ord, got.Cardinality(), want.Cardinality())
		}
	}
}

func TestTributaryConstantsAndFilters(t *testing.T) {
	// Q(a) :- Name(aw, 7), Award(h, aw), Actor(h, a), Year(h, y), y >= 1990, y < 2000
	q := core.MustQuery("Q", []core.Var{"a"},
		[]core.Atom{
			core.NewAtom("Name", core.V("aw"), core.C(7)),
			core.NewAtom("Award", core.V("h"), core.V("aw")),
			core.NewAtom("Actor", core.V("h"), core.V("a")),
			core.NewAtom("Year", core.V("h"), core.V("y")),
		},
		core.Filter{Left: "y", Op: core.Ge, Right: core.C(1990)},
		core.Filter{Left: "y", Op: core.Lt, Right: core.C(2000)},
	)
	name := rel.New("Name", "id", "code")
	name.AppendRow(100, 7)
	name.AppendRow(101, 8)
	award := rel.New("Award", "h", "aw")
	award.AppendRow(1, 100)
	award.AppendRow(2, 100)
	award.AppendRow(3, 101)
	actor := rel.New("Actor", "h", "a")
	actor.AppendRow(1, 500)
	actor.AppendRow(2, 501)
	actor.AppendRow(3, 502)
	year := rel.New("Year", "h", "y")
	year.AppendRow(1, 1995)
	year.AppendRow(2, 1985)
	year.AppendRow(3, 1999)
	rels := map[string]*rel.Relation{"Name": name, "Award": award, "Actor": actor, "Year": year}

	want, _ := NaiveEvaluate(q, rels)
	got, _, err := Evaluate(q, rels, []core.Var{"aw", "h", "a", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("got %v, want %v", got.Tuples, want.Tuples)
	}
	if got.Cardinality() != 1 || got.Tuples[0][0] != 500 {
		t.Fatalf("expected exactly actor 500, got %v", got.Tuples)
	}
}

func TestTributaryVarVarFilter(t *testing.T) {
	q := core.MustQuery("Q", nil,
		[]core.Atom{
			core.NewAtom("R", core.V("x"), core.V("f1")),
			core.NewAtom("S", core.V("x"), core.V("f2")),
		},
		core.Filter{Left: "f1", Op: core.Gt, Right: core.V("f2")},
	)
	r := randGraph("R", 80, 10, 10)
	s := randGraph("S", 80, 10, 11)
	rels := map[string]*rel.Relation{"R": r, "S": s}
	want, _ := NaiveEvaluate(q, rels)
	got, _, err := Evaluate(q, rels, []core.Var{"x", "f1", "f2"})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("got %d, want %d", got.Cardinality(), want.Cardinality())
	}
}

func TestTributaryRepeatedVariableAtom(t *testing.T) {
	// Self-loops joined with edges: Q(x,y) :- E(x,x), E(x,y).
	q := core.MustQuery("Q", nil, []core.Atom{
		core.NewAtom("E", core.V("x"), core.V("x")),
		core.NewAtom("E", core.V("x"), core.V("y")),
	})
	e := rel.New("E", "a", "b")
	e.AppendRow(1, 1)
	e.AppendRow(1, 2)
	e.AppendRow(2, 3)
	e.AppendRow(3, 3)
	e.AppendRow(3, 1)
	rels := map[string]*rel.Relation{"E": e, "E#2": e}
	want, _ := NaiveEvaluate(q, rels)
	got, _, err := Evaluate(q, rels, []core.Var{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("got %v, want %v", got.Tuples, want.Tuples)
	}
}

func TestTributaryEmptyRelation(t *testing.T) {
	q := triangleQuery()
	rels := map[string]*rel.Relation{
		"R": randGraph("R", 50, 8, 12),
		"S": rel.New("S", "a", "b"),
		"T": randGraph("T", 50, 8, 13),
	}
	got, _, err := Evaluate(q, rels, []core.Var{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 0 {
		t.Fatalf("join with an empty input produced %d tuples", got.Cardinality())
	}
}

func TestTributaryProjectionDedups(t *testing.T) {
	// Q(x) :- R(x,y): projection must be a set.
	q := core.MustQuery("Q", []core.Var{"x"}, []core.Atom{
		core.NewAtom("R", core.V("x"), core.V("y")),
	})
	r := rel.New("R", "a", "b")
	r.AppendRow(1, 10)
	r.AppendRow(1, 20)
	r.AppendRow(2, 10)
	got, _, err := Evaluate(q, map[string]*rel.Relation{"R": r}, []core.Var{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 2 {
		t.Fatalf("projection returned %d tuples, want 2", got.Cardinality())
	}
}

func TestTributaryEarlyStop(t *testing.T) {
	q := triangleQuery()
	rels := map[string]*rel.Relation{
		"R": randGraph("R", 400, 15, 14),
		"S": randGraph("S", 400, 15, 15),
		"T": randGraph("T", 400, 15, 16),
	}
	p, err := Prepare(q, rels, []core.Var{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := p.Run(func(rel.Tuple) bool {
		count++
		return count < 5
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("early stop emitted %d tuples, want 5", count)
	}
}

func TestTributaryFullyConstantAtomGuard(t *testing.T) {
	q := core.MustQuery("Q", []core.Var{"x"}, []core.Atom{
		core.NewAtom("Flag", core.C(1)),
		core.NewAtom("R", core.V("x")),
	})
	r := rel.New("R", "a")
	r.AppendRow(5)
	flagOn := rel.New("Flag", "f")
	flagOn.AppendRow(1)
	flagOff := rel.New("Flag", "f")
	flagOff.AppendRow(2)

	got, _, err := Evaluate(q, map[string]*rel.Relation{"Flag": flagOn, "R": r}, []core.Var{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 1 {
		t.Fatalf("guard satisfied: got %d tuples, want 1", got.Cardinality())
	}
	got, _, err = Evaluate(q, map[string]*rel.Relation{"Flag": flagOff, "R": r}, []core.Var{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 0 {
		t.Fatalf("guard failed: got %d tuples, want 0", got.Cardinality())
	}
}

func TestTributaryErrors(t *testing.T) {
	q := triangleQuery()
	rels := map[string]*rel.Relation{"R": randGraph("R", 10, 5, 1), "S": randGraph("S", 10, 5, 2), "T": randGraph("T", 10, 5, 3)}
	if _, err := Prepare(q, rels, []core.Var{"x", "y"}); err == nil {
		t.Error("short order should be rejected")
	}
	if _, err := Prepare(q, rels, []core.Var{"x", "y", "y"}); err == nil {
		t.Error("repeated variable in order should be rejected")
	}
	if _, err := Prepare(q, map[string]*rel.Relation{"R": rels["R"]}, []core.Var{"x", "y", "z"}); err == nil {
		t.Error("missing relation should be rejected")
	}
}

func TestNormalizeAtom(t *testing.T) {
	// Atom R(y, 7, x) with order x ≺ y: select col1=7, project to (x,y).
	atom := core.NewAtom("R", core.V("y"), core.C(7), core.V("x"))
	r := rel.New("R", "c1", "c2", "c3")
	r.AppendRow(10, 7, 20)
	r.AppendRow(11, 8, 21)
	r.AppendRow(12, 7, 22)
	norm := NormalizeAtom(atom, r, []core.Var{"x", "y"})
	if !norm.Schema.Equal(rel.Schema{"x", "y"}) {
		t.Fatalf("schema = %v", norm.Schema)
	}
	if norm.Cardinality() != 2 {
		t.Fatalf("cardinality = %d, want 2", norm.Cardinality())
	}
	if !norm.Tuples[0].Equal(rel.Tuple{20, 10}) {
		t.Fatalf("tuple 0 = %v", norm.Tuples[0])
	}
}

// TestNormalizerApplyIntoMatchesApply drives one reused destination through
// filtering and repeated-variable atoms: it must agree with Apply on every
// row, including the rows both reject.
func TestNormalizerApplyIntoMatchesApply(t *testing.T) {
	order := []core.Var{"x", "y", "z"}
	atoms := []core.Atom{
		core.NewAtom("R", core.V("y"), core.C(3), core.V("x")),
		core.NewAtom("R", core.V("x"), core.V("z"), core.V("x")),
		core.NewAtom("R", core.V("z"), core.V("y"), core.V("x")),
		core.NewAtom("R", core.V("y"), core.V("y"), core.V("y")),
	}
	rng := rand.New(rand.NewSource(11))
	for _, atom := range atoms {
		n := NewNormalizer(atom, order)
		dst := make(rel.Tuple, n.Arity())
		for i := 0; i < 500; i++ {
			row := rel.Tuple{rng.Int63n(4), rng.Int63n(4), rng.Int63n(4)}
			want, ok := n.Apply(row)
			if got := n.ApplyInto(dst, row); got != ok {
				t.Fatalf("%v on %v: ApplyInto = %v, Apply = %v", atom, row, got, ok)
			}
			if ok && !dst.Equal(want) {
				t.Fatalf("%v on %v: ApplyInto wrote %v, Apply returned %v", atom, row, dst, want)
			}
		}
	}
}

// Property test: Tributary join agrees with the naive oracle on random
// data for a two-atom path and the cyclic triangle, under every variable
// order. The triangle drives a three-way leapfrog at every level.
func TestTributaryPathProperty(t *testing.T) {
	path := core.MustQuery("Path", nil, []core.Atom{
		core.NewAtom("R", core.V("x"), core.V("y")),
		core.NewAtom("S", core.V("y"), core.V("z")),
	})
	orders := [][]core.Var{
		{"x", "y", "z"}, {"y", "x", "z"}, {"y", "z", "x"},
		{"z", "y", "x"}, {"x", "z", "y"}, {"z", "x", "y"},
	}
	f := func(seedR, seedS, seedT int16) bool {
		rels := map[string]*rel.Relation{
			"R": randGraph("R", 60, 8, int64(seedR)),
			"S": randGraph("S", 60, 8, int64(seedS)),
			"T": randGraph("T", 60, 8, int64(seedT)),
		}
		for _, q := range []*core.Query{path, triangleQuery()} {
			want, err := NaiveEvaluate(q, rels)
			if err != nil {
				return false
			}
			for _, ord := range orders {
				got, _, err := Evaluate(q, rels, ord)
				if err != nil || !got.Equal(want) {
					t.Logf("%s, order %v: err %v", q.Name, ord, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHashJoinMatchesNaive(t *testing.T) {
	q := core.MustQuery("Path", nil, []core.Atom{
		core.NewAtom("R", core.V("x"), core.V("y")),
		core.NewAtom("S", core.V("y"), core.V("z")),
	})
	r := randGraph("R", 150, 15, 21)
	s := randGraph("S", 150, 15, 22)
	want, _ := NaiveEvaluate(q, map[string]*rel.Relation{"R": r, "S": s})
	// HashJoin output: (x, y, z); naive head order is x,y,z too.
	got := HashJoin(r, s, []int{1}, []int{0})
	got.Dedup()
	if !got.Equal(want) {
		t.Fatalf("hash join %d tuples, naive %d", got.Cardinality(), want.Cardinality())
	}
}

func TestHashJoinSchema(t *testing.T) {
	r := rel.New("R", "x", "y")
	r.AppendRow(1, 2)
	s := rel.New("S", "y", "z")
	s.AppendRow(2, 3)
	j := HashJoin(r, s, []int{1}, []int{0})
	if !j.Schema.Equal(rel.Schema{"x", "y", "z"}) {
		t.Fatalf("schema = %v", j.Schema)
	}
	if j.Cardinality() != 1 || !j.Tuples[0].Equal(rel.Tuple{1, 2, 3}) {
		t.Fatalf("tuples = %v", j.Tuples)
	}
}

func TestHashJoinMultiColumnKey(t *testing.T) {
	r := rel.New("R", "a", "b", "v")
	r.AppendRow(1, 2, 100)
	r.AppendRow(1, 3, 200)
	s := rel.New("S", "a", "b", "w")
	s.AppendRow(1, 2, 111)
	s.AppendRow(1, 9, 222)
	j := HashJoin(r, s, []int{0, 1}, []int{0, 1})
	if j.Cardinality() != 1 || !j.Tuples[0].Equal(rel.Tuple{1, 2, 100, 111}) {
		t.Fatalf("tuples = %v", j.Tuples)
	}
}

func TestSemijoin(t *testing.T) {
	r := randGraph("R", 100, 20, 30)
	s := randGraph("S", 20, 20, 31)
	sj := Semijoin(r, s, []int{1}, []int{0})
	// Every kept tuple must have a match; every dropped one must not.
	matches := make(map[int64]bool)
	for _, t2 := range s.Tuples {
		matches[t2[0]] = true
	}
	kept := make(map[string]bool)
	for _, t2 := range sj.Tuples {
		if !matches[t2[1]] {
			t.Fatalf("semijoin kept unmatched tuple %v", t2)
		}
		kept[t2.String()] = true
	}
	for _, t2 := range r.Tuples {
		if matches[t2[1]] && !kept[t2.String()] {
			t.Fatalf("semijoin dropped matched tuple %v", t2)
		}
	}
}

func TestNaiveEvaluateFiltersAndConstants(t *testing.T) {
	q := core.MustQuery("Q", nil,
		[]core.Atom{core.NewAtom("R", core.V("x"), core.C(5))},
		core.Filter{Left: "x", Op: core.Gt, Right: core.C(1)},
	)
	r := rel.New("R", "a", "b")
	r.AppendRow(1, 5)
	r.AppendRow(2, 5)
	r.AppendRow(3, 6)
	got, err := NaiveEvaluate(q, map[string]*rel.Relation{"R": r})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 1 || got.Tuples[0][0] != 2 {
		t.Fatalf("naive = %v", got.Tuples)
	}
}

func TestLeapfrogUnary(t *testing.T) {
	// Intersect {1,3,4,5,6,7,8,9,11} ∩ {1,2,3,8,10,11} ∩ {1,3,5,8,9,11}
	// = {1,3,8,11} — the example from the LFTJ paper.
	mk := func(vals ...int64) *arrayTrie {
		r := rel.New("A", "v")
		for _, v := range vals {
			r.AppendRow(v)
		}
		r.Sort()
		tr := newArrayTrie(pack(r))
		tr.Open()
		return tr
	}
	lf := leapfrog{iters: []*arrayTrie{
		mk(1, 3, 4, 5, 6, 7, 8, 9, 11),
		mk(1, 2, 3, 8, 10, 11),
		mk(1, 3, 5, 8, 9, 11),
	}}
	lf.init()
	var got []int64
	for !lf.atEnd {
		got = append(got, lf.key())
		lf.next()
	}
	want := []int64{1, 3, 8, 11}
	if len(got) != len(want) {
		t.Fatalf("intersection = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("intersection = %v, want %v", got, want)
		}
	}
}

func TestGallopMatchesLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	words := make([]uint64, 500)
	for i := range words {
		words[i] = uint64(rng.Int63n(300))
	}
	slices.Sort(words)
	for v := uint64(0); v < 310; v += 3 {
		lb := lowerBound(words, 1, 0, len(words), v)
		gl := gallop(words, 1, 0, len(words), v)
		if lb != gl {
			t.Fatalf("v=%d: lowerBound %d, gallop %d", v, lb, gl)
		}
	}
}

// TestLowerBoundMatchesScan checks both searches — lowerBound and gallop,
// the trie's seek — against a linear scan on random brackets [lo, hi),
// empty ones included, over rows of a word per column: on stride 2, word
// 0 and word 1 inside a word-0 run; on stride 3, word 2 inside a run of
// equal words 0–1.
func TestLowerBoundMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	check := func(rows [][]uint64, words []uint64, col, lo, hi int) {
		t.Helper()
		stride := len(rows[0])
		// Word col is sorted only within a run of equal earlier words.
		for end := lo; end < hi; end++ {
			if !slices.Equal(rows[end][:col], rows[lo][:col]) {
				hi = end
			}
		}
		v := uint64(rng.Intn(55))
		want := lo
		for want < hi && rows[want][col] < v {
			want++
		}
		if got := lowerBound(words[col:], stride, lo, hi, v); got != want {
			t.Fatalf("stride %d: lowerBound([%d,%d), col %d, %d) = %d, want %d", stride, lo, hi, col, v, got, want)
		}
		if got := gallop(words[col:], stride, lo, hi, v); got != want {
			t.Fatalf("stride %d: gallop([%d,%d), col %d, %d) = %d, want %d", stride, lo, hi, col, v, got, want)
		}
	}
	bracket := func(n int) (lo, hi int) {
		lo = rng.Intn(n + 1)
		return lo, lo + rng.Intn(n-lo+1)
	}
	sortedRows := func(spans ...int) ([][]uint64, []uint64) {
		rows := make([][]uint64, 300)
		for i := range rows {
			for _, span := range spans {
				rows[i] = append(rows[i], uint64(rng.Intn(span)))
			}
		}
		slices.SortFunc(rows, slices.Compare)
		return rows, slices.Concat(rows...)
	}

	rows, words := sortedRows(20, 50)
	for trial := 0; trial < 2000; trial++ {
		lo, hi := bracket(len(rows))
		check(rows, words, rng.Intn(2), lo, hi)
	}

	rows3, words3 := sortedRows(3, 4, 50)
	for trial := 0; trial < 2000; trial++ {
		lo, hi := bracket(len(rows3))
		check(rows3, words3, 2, lo, hi)
	}
}
