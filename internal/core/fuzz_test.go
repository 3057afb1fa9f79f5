package core

import (
	"strings"
	"testing"
)

// FuzzParseRule checks the parser never panics and that anything it
// accepts survives a String() → ParseRule round trip.
func FuzzParseRule(f *testing.F) {
	seeds := []string{
		"Triangle(x,y,z) :- R(x,y), S(y,z), T(z,x)",
		`Q(a) :- Name(aw, "The Academy Awards"), Honor(h, aw), y>=1990`,
		"Q(a,b) :- R(a,f1), S(b,f2), f1>f2",
		"Q(x) :- R(x, -5), S(x, 42)",
		"Q() :- R(1,2), S(2,3)",
		"Q(x) :- R(x,)",
		"::-",
		"Q(x) :- R(x), y 5",
		strings.Repeat("Q(x) :- R(x), ", 10),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, rule string) {
		q, err := ParseRule(rule, fakeEnc{})
		if err != nil {
			return
		}
		re, err := ParseRule(q.String(), fakeEnc{})
		if err != nil {
			t.Fatalf("accepted %q but rejected its rendering %q: %v", rule, q.String(), err)
		}
		if re.String() != q.String() {
			t.Fatalf("rendering not stable: %q vs %q", q.String(), re.String())
		}
	})
}
