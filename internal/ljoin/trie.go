// Package ljoin implements parajoin's local (single-worker) join
// algorithms. The centerpiece is the Tributary join: the paper's
// implementation of the Leapfrog Triejoin API over sorted arrays rather
// than B-trees, worst-case optimal up to a log factor. The package also
// provides the local hash join, semijoin, and a naive backtracking
// evaluator used as a correctness oracle in tests.
package ljoin

import "parajoin/internal/rel"

// SeekMode selects the search strategy TrieIterator.Seek uses. The paper's
// Tributary join uses binary search over the remaining array (O(log n) per
// seek); galloping (exponential) search is an ablation that is cheaper when
// seeks move short distances.
type SeekMode int

// Seek strategies.
const (
	SeekBinary SeekMode = iota
	SeekGalloping
	// SeekBTree swaps the sorted-array backend for an on-the-fly B-tree —
	// the LogicBlox-style LFTJ backend the paper compares against. The
	// build cost replaces the sort cost; the paper argues sorting wins.
	SeekBTree
)

// TrieIterator is the Leapfrog Triejoin API (Veldhuizen): a cursor over a
// relation viewed as a trie whose level i holds the distinct values of
// column i grouped under their prefix. LogicBlox backs this API with
// B-trees; Tributary join backs it with a sorted array (see arrayTrie).
type TrieIterator interface {
	// Open descends to the first key one level below the current position.
	Open()
	// Up ascends one level, restoring the parent position.
	Up()
	// Next advances to the next key at the current level; may hit the end.
	Next()
	// Seek advances to the least key ≥ v at the current level; may hit the
	// end. Seek never moves backwards.
	SeekGE(v int64)
	// Key returns the key at the current position. Only valid when !AtEnd.
	Key() int64
	// AtEnd reports whether the iterator moved past the last key at the
	// current level.
	AtEnd() bool
	// Seeks returns the number of binary/galloping searches performed; the
	// Section-5 cost model estimates exactly this number.
	Seeks() int64
}

// arrayTrie is the sorted-array TrieIterator. The relation's tuples must be
// lexicographically sorted. Level d ranges over the distinct values of
// column d among the tuples in the half-open range [lo[d], hi[d]) that
// share the key prefix chosen at levels 0..d-1. Because the array is
// sorted, each residual relation is a contiguous sub-array, so Open/Up just
// push and pop range bounds — the "adjust the start and endpoints" trick
// from Section 2.2 of the paper.
type arrayTrie struct {
	tuples []rel.Tuple
	depth  int // current level; -1 = positioned at the (virtual) root
	lo     []int
	hi     []int
	pos    []int
	end    []bool
	mode   SeekMode
	seeks  int64
}

// newArrayTrie wraps a sorted relation. maxDepth is the number of columns
// the join will descend through (the atom's variable count).
func newArrayTrie(tuples []rel.Tuple, maxDepth int, mode SeekMode) *arrayTrie {
	return &arrayTrie{
		tuples: tuples,
		depth:  -1,
		lo:     make([]int, maxDepth),
		hi:     make([]int, maxDepth),
		pos:    make([]int, maxDepth),
		end:    make([]bool, maxDepth),
		mode:   mode,
	}
}

func (a *arrayTrie) Open() {
	d := a.depth + 1
	if d == 0 {
		a.lo[0], a.hi[0] = 0, len(a.tuples)
	} else {
		// The children of the current key are the run of tuples sharing it.
		a.lo[d] = a.pos[d-1]
		a.hi[d] = a.keyRunEnd(d - 1)
	}
	a.pos[d] = a.lo[d]
	a.end[d] = a.lo[d] >= a.hi[d]
	a.depth = d
}

func (a *arrayTrie) Up() {
	a.depth--
}

func (a *arrayTrie) Next() {
	d := a.depth
	if a.end[d] {
		return
	}
	a.pos[d] = a.keyRunEnd(d)
	a.end[d] = a.pos[d] >= a.hi[d]
}

func (a *arrayTrie) SeekGE(v int64) {
	d := a.depth
	if a.end[d] || a.tuples[a.pos[d]][d] >= v {
		return
	}
	a.seeks++
	switch a.mode {
	case SeekGalloping:
		a.pos[d] = gallop(a.tuples, a.pos[d], a.hi[d], d, v)
	default:
		a.pos[d] = lowerBound(a.tuples, a.pos[d], a.hi[d], d, v)
	}
	a.end[d] = a.pos[d] >= a.hi[d]
}

func (a *arrayTrie) Key() int64   { return a.tuples[a.pos[a.depth]][a.depth] }
func (a *arrayTrie) AtEnd() bool  { return a.end[a.depth] }
func (a *arrayTrie) Seeks() int64 { return a.seeks }

// clone returns an independent iterator over the same (shared, immutable)
// backing array, positioned at the virtual root with a fresh seek counter.
// Shards use it to walk disjoint ranges of one relation concurrently.
func (a *arrayTrie) clone() *arrayTrie {
	return newArrayTrie(a.tuples, len(a.lo), a.mode)
}

// keyRunEnd returns the index one past the run of tuples sharing the
// current key at level d within [pos[d], hi[d]).
func (a *arrayTrie) keyRunEnd(d int) int {
	k := a.tuples[a.pos[d]][d]
	a.seeks++
	switch a.mode {
	case SeekGalloping:
		return gallop(a.tuples, a.pos[d]+1, a.hi[d], d, k+1)
	default:
		return lowerBound(a.tuples, a.pos[d]+1, a.hi[d], d, k+1)
	}
}

// lowerBound returns the smallest index i in [lo, hi) with tuples[i][col]
// ≥ v, or hi when none exists.
func lowerBound(tuples []rel.Tuple, lo, hi, col int, v int64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tuples[mid][col] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gallop performs exponential search from lo: it doubles a probe distance
// until overshooting, then binary-searches the final bracket. Cost is
// O(log d) where d is the distance moved, which beats plain binary search
// when intersections advance in small steps.
func gallop(tuples []rel.Tuple, lo, hi, col int, v int64) int {
	if lo >= hi || tuples[lo][col] >= v {
		return lo
	}
	step := 1
	prev := lo
	for lo+step < hi && tuples[lo+step][col] < v {
		prev = lo + step
		step *= 2
	}
	upper := lo + step
	if upper > hi {
		upper = hi
	}
	return lowerBound(tuples, prev+1, upper, col, v)
}
