// Package ljoin implements parajoin's local (single-worker) join
// algorithms. The centerpiece is the Tributary join: the paper's
// implementation of the Leapfrog Triejoin API over sorted arrays rather
// than B-trees, worst-case optimal up to a log factor. The package also
// provides the local hash join, semijoin, and a naive backtracking
// evaluator used as a correctness oracle in tests.
package ljoin

import (
	"math"
	"slices"
)

// SeekMode selects nothing: every Tributary join seeks by galloping search
// over a sorted array. The type and its one constant are kept only for
// bench/ledger.go, which names them (ROADMAP 1(a)).
type SeekMode int

// SeekBinary is SeekMode's zero value; it selects nothing.
const SeekBinary SeekMode = 0

// arrayTrie is the Leapfrog Triejoin API (Veldhuizen) over a sorted array:
// a cursor over a relation viewed as a trie whose level i holds the
// distinct values of column i grouped under their prefix. The relation is
// its packed rows (rel.KeyPacker), w words per row, row after row, in the
// words' unsigned lexicographic order, which is the rows' lexicographic
// order. Level d ranges over the distinct values of column d among the
// rows in the half-open range [lo, hi) of its level that share the key
// prefix chosen at levels 0..d-1. Because the array is sorted, each
// residual relation is a contiguous sub-array, so Open/Up just push and
// pop range bounds — the "adjust the start and endpoints" trick from
// Section 2.2 of the paper.
type arrayTrie struct {
	words  []uint64 // rows·w words
	w      int      // words per row
	rows   int
	depth  int // current level; -1 = positioned at the (virtual) root
	levels []level
	// seeks counts galloping searches, the quantity the Section-5 cost
	// model estimates.
	seeks int64
}

// level is one trie level: where its column lies in a packed row (value
// min + (row[word]>>shift)&mask, low the bits below the field), its
// current row range [lo, hi), the row at which its current key starts,
// that key, and whether it has run off the end. Within [lo, hi) every
// row's word holds the same bits above the column's field, so comparing
// whole words compares the column.
type level struct {
	word   int
	shift  uint
	mask   uint64
	low    uint64
	min    int64
	lo, hi int
	pos    int
	key    int64
	end    bool
}

// newArrayTrie wraps a sorted relation of arity ≥ 1. The join descends
// through every column.
func newArrayTrie(s Sorted) *arrayTrie {
	a := &arrayTrie{words: s.Words, w: s.Layout.Words(), rows: s.Rows, depth: -1}
	for _, f := range s.Layout.Fields() {
		// A field of width 0 may sit at shift 64, above every bit.
		a.levels = append(a.levels, level{word: f.Word, shift: f.Shift, mask: f.Mask, low: 1<<f.Shift - 1, min: f.Min})
	}
	return a
}

// Open descends to the first key one level below the current position.
func (a *arrayTrie) Open() {
	d := a.depth + 1
	l := &a.levels[d]
	if d == 0 {
		l.lo, l.hi = 0, a.rows
	} else {
		// The children of the current key are the run of rows sharing it.
		l.lo, l.hi = a.levels[d-1].pos, a.keyRunEnd(&a.levels[d-1])
	}
	a.move(l, l.lo)
	a.depth = d
}

// Up ascends one level, restoring the parent position.
func (a *arrayTrie) Up() {
	a.depth--
}

// Next advances to the next key at the current level; it may hit the end.
func (a *arrayTrie) Next() {
	l := &a.levels[a.depth]
	if !l.end {
		a.move(l, a.keyRunEnd(l))
	}
}

// SeekGE advances to the least key ≥ v at the current level; it may hit
// the end. SeekGE never moves backwards. The target word is the current
// row's bits above the column with v's offset in the column's field, so
// one gallop over whole words finds it.
func (a *arrayTrie) SeekGE(v int64) {
	l := &a.levels[a.depth]
	if l.end || l.key >= v {
		return
	}
	a.seeks++
	off := uint64(v) - uint64(l.min) // > 0: v exceeds the current key
	if off > l.mask {
		l.pos, l.end = l.hi, true // beyond the column's range
		return
	}
	col := a.words[l.word:]
	above := col[l.pos*a.w] &^ (l.mask<<(l.shift&63) | l.low)
	a.move(l, gallop(col, a.w, l.pos, l.hi, above|off<<(l.shift&63)))
}

// move positions level l at row i, decoding its key unless i is past the
// level's range. (A shift of 64 only occurs with a zero mask, so masking
// it to 63 changes no value.)
func (a *arrayTrie) move(l *level, i int) {
	l.pos, l.end = i, i >= l.hi
	if !l.end {
		l.key = a.value(l, i)
	}
}

// Key returns the key at the current position. Only valid when !AtEnd.
func (a *arrayTrie) Key() int64 { return a.levels[a.depth].key }

// value decodes level l's column of row i.
func (a *arrayTrie) value(l *level, i int) int64 {
	return l.min + int64(a.words[i*a.w+l.word]>>(l.shift&63)&l.mask)
}

// AtEnd reports whether the iterator moved past the last key at the
// current level.
func (a *arrayTrie) AtEnd() bool { return a.levels[a.depth].end }

// clone returns an independent iterator over the same (shared, immutable)
// backing array, positioned at the virtual root with a fresh seek counter.
// Shards use it to walk disjoint ranges of one relation concurrently.
func (a *arrayTrie) clone() *arrayTrie {
	c := *a
	c.levels = slices.Clone(a.levels)
	c.depth, c.seeks = -1, 0
	return &c
}

// keyRunEnd returns the index one past the run of rows sharing level l's
// current key within [pos, hi): the first row whose word exceeds the key's
// with every bit below the column's field set.
func (a *arrayTrie) keyRunEnd(l *level) int {
	col := a.words[l.word:]
	last := col[l.pos*a.w] | l.low
	a.seeks++
	if last == math.MaxUint64 {
		return l.hi
	}
	return gallop(col, a.w, l.pos+1, l.hi, last+1)
}

// lowerBound returns the smallest row index i in [lo, hi) with
// col[i·stride] ≥ v, or hi when none exists. col is a row-major word array
// re-sliced to start at the searched word, so row i's word is one load.
func lowerBound(col []uint64, stride, lo, hi int, v uint64) int {
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
func gallop(col []uint64, stride, lo, hi int, v uint64) int {
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
