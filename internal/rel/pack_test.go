package rel

import (
	"cmp"
	"math"
	"math/rand"
	"testing"
)

// TestKeyPackerOrderAndRoundTrip: keys compare like the packed projections
// and unpack to them, including ranges that need exactly 64 bits.
func TestKeyPackerOrderAndRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		name  string
		cols  []int
		value func() int64
	}{
		{"small", []int{0, 1}, func() int64 { return rng.Int63n(1500) - 700 }},
		{"reordered", []int{2, 0}, func() int64 { return rng.Int63n(9) }},
		{"two 32-bit", []int{0, 1}, func() int64 { return rng.Int63n(1<<32) - 1<<31 }},
		{"full range", []int{1}, func() int64 { return int64(rng.Uint64()) }},
	}
	for _, c := range cases {
		tuples := make([]Tuple, 300)
		for i := range tuples {
			tuples[i] = Tuple{c.value(), c.value(), c.value()}
		}
		if c.name == "full range" {
			tuples[0][1], tuples[1][1] = math.MinInt64, math.MaxInt64
		}
		p, ok := FitKeyPacker(tuples, c.cols)
		if !ok {
			t.Fatalf("%s: ranges did not pack", c.name)
		}
		byCols := func(a, b Tuple) int {
			for _, col := range c.cols {
				if d := cmp.Compare(a[col], b[col]); d != 0 {
					return d
				}
			}
			return 0
		}
		for i := 0; i < 2000; i++ {
			a, b := tuples[rng.Intn(len(tuples))], tuples[rng.Intn(len(tuples))]
			if got, want := cmp.Compare(p.Pack(a), p.Pack(b)), byCols(a, b); got != want {
				t.Fatalf("%s: keys of %v, %v compare %d, projections %d", c.name, a, b, got, want)
			}
		}
		for _, tup := range tuples {
			back := Tuple{-1, -1, -1}
			p.Unpack(p.Pack(tup), back)
			for _, col := range c.cols {
				if back[col] != tup[col] {
					t.Fatalf("%s: %v unpacked to %v", c.name, tup, back)
				}
			}
		}
	}
}

func TestKeyPackerRejectsWideRanges(t *testing.T) {
	tuples := []Tuple{{math.MinInt64, 0}, {math.MaxInt64, 1}}
	if _, ok := FitKeyPacker(tuples, []int{0, 1}); ok {
		t.Fatal("65 bits of range packed into one key")
	}
	if p, ok := FitKeyPacker(tuples, []int{0}); !ok || p.Width() != 64 {
		t.Fatalf("full-range column: ok=%v width=%d, want 64 bits", ok, p.Width())
	}
}
