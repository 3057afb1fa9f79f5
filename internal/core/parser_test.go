package core

import (
	"strings"
	"testing"
)

type fakeEnc map[string]int64

func (f fakeEnc) Code(s string) int64 {
	if c, ok := f[s]; ok {
		return c
	}
	c := int64(len(f) + 1000)
	f[s] = c
	return c
}

func TestParseTriangle(t *testing.T) {
	q, err := ParseRule("Triangle(x,y,z) :- R(x,y), S(y,z), T(z,x)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "Triangle" || len(q.Atoms) != 3 || len(q.Head) != 3 {
		t.Fatalf("parsed %v", q)
	}
	if q.Atoms[2].Relation != "T" || q.Atoms[2].Terms[1].Var != "x" {
		t.Fatalf("atom 2 = %v", q.Atoms[2])
	}
}

func TestParseFiltersAndConstants(t *testing.T) {
	enc := fakeEnc{}
	q, err := ParseRule(
		`OscarWinners(a) :- ObjectName(aw, "The Academy Awards"), HonorAward(h, aw), HonorActor(h, a), HonorYear(h, y), y>=1990, y<2000`,
		enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Atoms) != 4 || len(q.Filters) != 2 {
		t.Fatalf("parsed %d atoms, %d filters", len(q.Atoms), len(q.Filters))
	}
	c := q.Atoms[0].Terms[1]
	if c.IsVar {
		t.Fatal("string constant parsed as variable")
	}
	if want, _ := enc["The Academy Awards"]; c.Const != want {
		t.Fatalf("constant code = %d, want %d", c.Const, want)
	}
	if q.Filters[0].Op != Ge || q.Filters[0].Right.Const != 1990 {
		t.Fatalf("filter 0 = %v", q.Filters[0])
	}
	if q.Filters[1].Op != Lt || q.Filters[1].Right.Const != 2000 {
		t.Fatalf("filter 1 = %v", q.Filters[1])
	}
}

func TestParseVarVarFilter(t *testing.T) {
	q, err := ParseRule("Q(a,b) :- R(a,f1), S(b,f2), f1>f2", nil)
	if err != nil {
		t.Fatal(err)
	}
	f := q.Filters[0]
	if f.Left != "f1" || f.Op != Gt || !f.Right.IsVar || f.Right.Var != "f2" {
		t.Fatalf("filter = %v", f)
	}
}

func TestParseNegativeAndIntConstants(t *testing.T) {
	q, err := ParseRule("Q(x) :- R(x, -5), S(x, 42)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.Atoms[0].Terms[1].Const != -5 || q.Atoms[1].Terms[1].Const != 42 {
		t.Fatalf("constants = %v, %v", q.Atoms[0].Terms[1], q.Atoms[1].Terms[1])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"Q(x)",                       // no body
		"Q(x) :- ",                   // empty body
		"Q(x) :- R(x) extra",         // trailing garbage
		"Q(x) :- R(x,)",              // dangling comma
		`Q(x) :- R(x, "unterminated`, // bad string
		"Q(5) :- R(x)",               // constant in head
		"Q(x) :- R(y)",               // head var unbound
		`Q(x) :- R(x, "s")`,          // string constant without encoder
		"Q(x) :- R(x), y 5",          // junk filter
	}
	for _, rule := range bad {
		if _, err := ParseRule(rule, nil); err == nil {
			t.Errorf("ParseRule(%q) unexpectedly succeeded", rule)
		}
	}
}

// TestParseConstantsOnlyRule: a head with no variables parses over a body
// of constants only and round-trips through String; over a body with
// variables it is an error, not a query over every variable.
func TestParseConstantsOnlyRule(t *testing.T) {
	for _, rule := range []string{"Q() :- E(1,2), E(2,3)", "Q( ) :- E(1, 2),E(2,3)"} {
		q, err := ParseRule(rule, nil)
		if err != nil {
			t.Fatalf("ParseRule(%q): %v", rule, err)
		}
		if len(q.Head) != 0 || len(q.Vars()) != 0 || len(q.Atoms) != 2 {
			t.Fatalf("ParseRule(%q) = %v: head %v, vars %v", rule, q, q.Head, q.Vars())
		}
		const want = "Q() :- E(1,2), E(2,3)"
		if q.String() != want {
			t.Fatalf("ParseRule(%q).String() = %q, want %q", rule, q.String(), want)
		}
		if re, err := ParseRule(q.String(), nil); err != nil || re.String() != want {
			t.Fatalf("reparsing %q: %v, %v", q.String(), re, err)
		}
	}
	for _, rule := range []string{"Q() :- E(x,y)", "Q() :- E(1,2), E(2,x)"} {
		_, err := ParseRule(rule, nil)
		if err == nil || !strings.Contains(err.Error(), "a head with no variables needs a body with none") {
			t.Fatalf("ParseRule(%q) err = %v, want the empty-head error", rule, err)
		}
	}
}

func TestParseRoundTripThroughString(t *testing.T) {
	orig := MustParseRule("Triangle(x,y,z) :- R(x,y), S(y,z), T(z,x)", nil)
	re, err := ParseRule(orig.String(), nil)
	if err != nil {
		t.Fatalf("reparsing %q: %v", orig.String(), err)
	}
	if re.String() != orig.String() {
		t.Fatalf("round trip changed query: %q vs %q", orig.String(), re.String())
	}
}
