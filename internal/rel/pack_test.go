package rel

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
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
			p.Unpack([]uint64{p.Pack(tup)}, back)
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

// TestRowPackerWords: a row whose ranges fit 64 bits packs into one word,
// a wider one into a word per column, and either way the words compare
// like the rows and unpack to them. Constant columns take no bits.
func TestRowPackerWords(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := []struct {
		name  string
		words int
		value func(c int) int64
	}{
		{"narrow", 1, func(c int) int64 { return rng.Int63n(1000) - 500 }},
		{"constant column", 1, func(c int) int64 { return int64(c*7) + rng.Int63n(int64(c%2*40+1)) }},
		{"full range", 3, func(c int) int64 {
			if c == 1 {
				return 9
			}
			return int64(rng.Uint64())
		}},
	}
	for _, c := range cases {
		rows := make([]Tuple, 400)
		lo, hi := []int64{math.MaxInt64, math.MaxInt64, math.MaxInt64}, []int64{math.MinInt64, math.MinInt64, math.MinInt64}
		for i := range rows {
			rows[i] = Tuple{c.value(0), c.value(1), c.value(2)}
			if c.name == "full range" && i < 2 {
				rows[i][0] = []int64{math.MinInt64, math.MaxInt64}[i]
			}
			for j, v := range rows[i] {
				lo[j], hi[j] = min(lo[j], v), max(hi[j], v)
			}
		}
		p := NewRowPacker(lo, hi)
		if p.Words() != c.words {
			t.Fatalf("%s: %d words, want %d", c.name, p.Words(), c.words)
		}
		key := func(r Tuple) []uint64 {
			k := make([]uint64, p.Words())
			p.PackInto(k, r)
			return k
		}
		for i := 0; i < 2000; i++ {
			a, b := rows[rng.Intn(len(rows))], rows[rng.Intn(len(rows))]
			if got, want := slices.Compare(key(a), key(b)), a.Compare(b); got != want {
				t.Fatalf("%s: words of %v, %v compare %d, rows %d", c.name, a, b, got, want)
			}
		}
		for _, r := range rows {
			back := Tuple{-1, -1, -1}
			if p.Unpack(key(r), back); !back.Equal(r) {
				t.Fatalf("%s: %v unpacked to %v", c.name, r, back)
			}
			for i, f := range p.Fields() {
				if got := f.Min + int64(key(r)[f.Word]>>f.Shift&f.Mask); got != r[i] {
					t.Fatalf("%s: field %d of %v decodes to %d", c.name, i, r, got)
				}
			}
		}
	}
}
