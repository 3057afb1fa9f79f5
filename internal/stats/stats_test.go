package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"parajoin/internal/rel"
)

func sample() *rel.Relation {
	r := rel.New("R", "x", "y", "z")
	r.AppendRow(1, 1, 1)
	r.AppendRow(1, 1, 2)
	r.AppendRow(1, 2, 1)
	r.AppendRow(2, 1, 1)
	r.AppendRow(2, 1, 1) // duplicate
	return r
}

func TestPrefix(t *testing.T) {
	s := Collect(sample())
	for _, tc := range []struct {
		cols []int
		want int
	}{
		{nil, 1}, {[]int{0}, 2}, {[]int{2}, 2},
		{[]int{0, 1}, 3}, {[]int{1, 0}, 3}, {[]int{0, 0, 1}, 3},
		{[]int{0, 1, 2}, 4}, {[]int{2, 0, 1}, 4},
	} {
		if got := s.Prefix(tc.cols); got != tc.want {
			t.Errorf("V(R,%v) = %d, want %d", tc.cols, got, tc.want)
		}
	}
	if got := Collect(rel.New("E", "x")).Prefix(nil); got != 0 {
		t.Errorf("V(empty,()) = %d, want 0", got)
	}
}

// bruteDistinct counts distinct projections the slow, obvious way.
func bruteDistinct(r *rel.Relation, cols []int) int {
	seen := map[string]bool{}
	for _, t := range r.Tuples {
		seen[t.Project(cols).String()] = true
	}
	return len(seen)
}

// TestPrefixAgainstBruteForce covers both counting paths: value ranges that
// pack into one uint64, and (with full-range values in three columns) ones
// that do not and fall back to the index sort.
func TestPrefixAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, wide := range []bool{false, true} {
		r := rel.New("R", "a", "b", "c")
		for i := 0; i < 3000; i++ {
			row := []int64{rng.Int63n(40) - 20, rng.Int63n(40), rng.Int63n(3)}
			if wide {
				for j := range row {
					row[j] = (row[j] - 1) * (math.MaxInt64 / 64)
				}
			}
			r.AppendRow(row...)
		}
		s := Collect(r)
		for _, cols := range [][]int{{0}, {1}, {0, 1}, {1, 2}, {0, 2}, {0, 1, 2}} {
			if got, want := s.Prefix(cols), bruteDistinct(r, cols); got != want {
				t.Errorf("wide=%v V(R,%v) = %d, want %d", wide, cols, got, want)
			}
		}
	}
}

func TestPrefixMonotone(t *testing.T) {
	f := func(rows []uint8) bool {
		r := rel.New("R", "a", "b")
		for i, v := range rows {
			r.AppendRow(int64(v%7), int64(i%5))
		}
		s := Collect(r)
		a, ab := s.Prefix([]int{0}), s.Prefix([]int{0, 1})
		if len(rows) == 0 {
			return a == 0 && ab == 0
		}
		// Longer prefixes can only have at least as many distinct values,
		// and never more than the cardinality.
		return a <= ab && ab <= len(rows)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixMemoCountsOnce pins the memo: a column set is scanned for once,
// whatever order its columns are named in and however many goroutines ask,
// and single columns never cost a scan beyond Collect's.
func TestPrefixMemoCountsOnce(t *testing.T) {
	r := rel.New("R", "a", "b", "c")
	for i := 0; i < 500; i++ {
		r.AppendRow(int64(i%7), int64(i%11), int64(i%13))
	}
	before := RelationScans()
	s := Collect(r)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := s.Prefix([]int{0, 1}); got != 77 {
					t.Errorf("V(a,b) = %d, want 77", got)
				}
				s.Prefix([]int{1, 0})
				s.Prefix([]int{2})
				s.Prefix(nil)
			}
		}()
	}
	wg.Wait()
	if got := RelationScans() - before; got != 2 {
		t.Errorf("%d scans, want 2 (one Collect, one (a,b) count)", got)
	}
}

// TestCatalogWith pins the copy-on-write publish a database does on load.
func TestCatalogWith(t *testing.T) {
	r, other := sample(), rel.New("S", "x")
	c := NewCatalog(r, other)
	replacement := rel.New("R", "x")
	replacement.AppendRow(1)
	next := c.With(Collect(replacement))
	if c.Cardinality("R") != 5 || next.Cardinality("R") != 1 {
		t.Errorf("|R| = %d in the old catalog, %d in the new; want 5 and 1", c.Cardinality("R"), next.Cardinality("R"))
	}
	if next.Get("S") != c.Get("S") {
		t.Error("untouched entries must be shared, not re-collected")
	}
	if c.For(r) == nil || next.For(r) != nil || next.For(replacement) == nil {
		t.Error("For must answer only for the relation an entry was collected from")
	}
}

func TestCollectAndCatalog(t *testing.T) {
	r := sample()
	s := Collect(r)
	if s.Cardinality != 5 || s.ColumnDistinct[0] != 2 || s.ColumnDistinct[1] != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if got := s.Prefix([]int{0}); got != 2 {
		t.Errorf("Prefix(x) = %d", got)
	}

	c := NewCatalog(r)
	if c.Cardinality("R") != 5 {
		t.Errorf("catalog |R| = %d", c.Cardinality("R"))
	}
	if c.Cardinality("missing") != 0 {
		t.Error("unknown relation should report cardinality 0")
	}
	if c.Get("missing") != nil {
		t.Error("unknown relation should report nil stats")
	}

	bigger := rel.New("R", "x")
	bigger.AppendRow(1)
	c.Add(bigger)
	if c.Cardinality("R") != 1 {
		t.Error("Add should replace the previous entry")
	}
}
