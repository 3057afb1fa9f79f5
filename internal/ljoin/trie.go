// Package ljoin implements parajoin's local (single-worker) join
// algorithms. The centerpiece is the Tributary join: the paper's
// implementation of the Leapfrog Triejoin API over sorted arrays rather
// than B-trees, worst-case optimal up to a log factor. The package also
// provides the local hash join, semijoin, and a naive backtracking
// evaluator used as a correctness oracle in tests.
package ljoin

// SeekMode selects nothing: every Tributary join seeks by galloping search
// over a sorted array. The type and its one constant are kept only for
// bench/ledger.go, which names them (ROADMAP 1(a)).
type SeekMode int

// SeekBinary is SeekMode's zero value; it selects nothing.
const SeekBinary SeekMode = 0

// arrayTrie is the Leapfrog Triejoin API (Veldhuizen) over a sorted array:
// a cursor over a relation viewed as a trie whose level i holds the
// distinct values of column i grouped under their prefix. The relation is
// one flat row-major array, stride values per row, whose rows must be
// lexicographically sorted. Level d ranges over the distinct values of
// column d among the rows in the half-open range [lo[d], hi[d]) that share
// the key prefix chosen at levels 0..d-1. Because the array is sorted,
// each residual relation is a contiguous sub-array, so Open/Up just push
// and pop range bounds — the "adjust the start and endpoints" trick from
// Section 2.2 of the paper.
type arrayTrie struct {
	vals   []int64 // rows·stride values, row-major
	stride int     // the relation's arity, also the trie's depth
	rows   int
	depth  int // current level; -1 = positioned at the (virtual) root
	lo     []int
	hi     []int
	pos    []int
	end    []bool
	// seeks counts galloping searches, the quantity the Section-5 cost
	// model estimates.
	seeks int64
}

// newArrayTrie wraps a sorted relation of arity ≥ 1. The join descends
// through every column.
func newArrayTrie(s Sorted) *arrayTrie {
	return &arrayTrie{
		vals:   s.Vals,
		stride: s.Arity,
		rows:   s.Rows,
		depth:  -1,
		lo:     make([]int, s.Arity),
		hi:     make([]int, s.Arity),
		pos:    make([]int, s.Arity),
		end:    make([]bool, s.Arity),
	}
}

// Open descends to the first key one level below the current position.
func (a *arrayTrie) Open() {
	d := a.depth + 1
	if d == 0 {
		a.lo[0], a.hi[0] = 0, a.rows
	} else {
		// The children of the current key are the run of rows sharing it.
		a.lo[d] = a.pos[d-1]
		a.hi[d] = a.keyRunEnd(d - 1)
	}
	a.pos[d] = a.lo[d]
	a.end[d] = a.lo[d] >= a.hi[d]
	a.depth = d
}

// Up ascends one level, restoring the parent position.
func (a *arrayTrie) Up() {
	a.depth--
}

// Next advances to the next key at the current level; it may hit the end.
func (a *arrayTrie) Next() {
	d := a.depth
	if a.end[d] {
		return
	}
	a.pos[d] = a.keyRunEnd(d)
	a.end[d] = a.pos[d] >= a.hi[d]
}

// SeekGE advances to the least key ≥ v at the current level; it may hit
// the end. SeekGE never moves backwards.
func (a *arrayTrie) SeekGE(v int64) {
	d := a.depth
	if a.end[d] || a.vals[a.pos[d]*a.stride+d] >= v {
		return
	}
	a.seeks++
	a.pos[d] = gallop(a.vals[d:], a.stride, a.pos[d], a.hi[d], v)
	a.end[d] = a.pos[d] >= a.hi[d]
}

// Key returns the key at the current position. Only valid when !AtEnd.
func (a *arrayTrie) Key() int64 { return a.vals[a.pos[a.depth]*a.stride+a.depth] }

// AtEnd reports whether the iterator moved past the last key at the
// current level.
func (a *arrayTrie) AtEnd() bool { return a.end[a.depth] }

// clone returns an independent iterator over the same (shared, immutable)
// backing array, positioned at the virtual root with a fresh seek counter.
// Shards use it to walk disjoint ranges of one relation concurrently.
func (a *arrayTrie) clone() *arrayTrie {
	return newArrayTrie(Sorted{Arity: a.stride, Rows: a.rows, Vals: a.vals})
}

// keyRunEnd returns the index one past the run of rows sharing the
// current key at level d within [pos[d], hi[d]).
func (a *arrayTrie) keyRunEnd(d int) int {
	col := a.vals[d:]
	k := col[a.pos[d]*a.stride]
	a.seeks++
	return gallop(col, a.stride, a.pos[d]+1, a.hi[d], k+1)
}

// lowerBound returns the smallest row index i in [lo, hi) with
// col[i·stride] ≥ v, or hi when none exists. col is a flat row-major array
// re-sliced to start at the searched column, so row i's value is one load.
func lowerBound(col []int64, stride, lo, hi int, v int64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if col[mid*stride] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gallop is lowerBound by exponential search from lo: it doubles a probe
// distance until overshooting, then binary-searches the final bracket.
// Cost is O(log d) where d is the distance moved, which beats plain binary
// search when intersections advance in small steps.
func gallop(col []int64, stride, lo, hi int, v int64) int {
	if lo >= hi || col[lo*stride] >= v {
		return lo
	}
	step := 1
	prev := lo
	for lo+step < hi && col[(lo+step)*stride] < v {
		prev = lo + step
		step *= 2
	}
	upper := lo + step
	if upper > hi {
		upper = hi
	}
	return lowerBound(col, stride, prev+1, upper, v)
}
