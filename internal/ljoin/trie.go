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
// order. Because the array is sorted, each residual relation is a
// contiguous sub-array, so Open/Up just push and pop range bounds — the
// "adjust the start and endpoints" trick from Section 2.2 of the paper.
//
// Every level but the last (the leaf) has a directory, built level by
// level when the trie is made: the level's keys, one per distinct prefix
// ending at its column, in row order, and for each key where its children
// start in the next level's directory (in the rows, at the last directory
// level). A directory level's range is a range of its keys, so Open and
// Next cost O(1) and SeekGE gallops over distinct keys. The leaf ranges
// over rows: SeekGE gallops over the packed words, and Next searches for
// the end of the current key's run, which is one row unless the input
// repeats a row.
type arrayTrie struct {
	words  []uint64 // rows·w words
	w      int      // words per row
	rows   int
	depth  int // current level; -1 = positioned at the (virtual) root
	levels []level
	// seeks counts the searches a join makes — every SeekGE that moves and
	// every leaf run-end search — the quantity the Section-5 cost model
	// estimates.
	seeks int64
}

// level is one trie level: where its column lies in a packed row (value
// min + (row[word]>>shift)&mask, low the bits below the field), its
// directory (none at the leaf), its current range [lo, hi) of directory
// entries (rows at the leaf), the entry or row at which its current key
// starts, that key, and whether it has run off the end. Within a leaf
// range every row's word holds the same bits above the column's field, so
// comparing whole words compares the column.
type level struct {
	word  int
	shift uint
	mask  uint64
	low   uint64
	min   int64
	// keys[e] is directory entry e's key; its children are the next
	// level's entries (the rows, below the last directory level)
	// [child[e], child[e+1]). The directories are shared by clones.
	keys   []int64
	child  []int
	leaf   bool
	lo, hi int
	pos    int
	key    int64
	end    bool
}

// newArrayTrie wraps a sorted relation of arity ≥ 1 and builds the
// directory of every level above the leaf. The join descends through
// every column.
func newArrayTrie(s Sorted) *arrayTrie {
	fields := s.Layout.Fields()
	a := &arrayTrie{words: s.Words, w: s.Layout.Words(), rows: s.Rows, depth: -1}
	a.levels = make([]level, len(fields))
	for d, f := range fields {
		// A field of width 0 may sit at shift 64, above every bit.
		a.levels[d] = level{word: f.Word, shift: f.Shift, mask: f.Mask, low: 1<<f.Shift - 1, min: f.Min, leaf: d == len(fields)-1}
	}
	dirs := a.levels[:len(fields)-1]
	parent := []int{0, s.Rows}
	for d := range dirs {
		dirs[d].keys, dirs[d].child = a.directory(d, parent)
		parent = dirs[d].child
	}
	// child holds rows so far; above the last directory level it points
	// into the next directory instead, whose rows include every row it
	// holds.
	for d := 0; d+1 < len(dirs); d++ {
		next, j := dirs[d+1].child, 0
		for e, row := range dirs[d].child {
			for next[j] < row {
				j++
			}
			dirs[d].child[e] = j
		}
	}
	return a
}

// directory returns level d's keys, one per run of rows sharing column d
// within a run of the parent level, and the first row of each run followed
// by the number of rows. parent lists the parent level's runs the same
// way. It gallops from run to run, once to count the runs and once to fill
// exact-sized slices.
func (a *arrayTrie) directory(d int, parent []int) (keys []int64, starts []int) {
	l := &a.levels[d]
	n := 0
	for e := range len(parent) - 1 {
		for i, hi := parent[e], parent[e+1]; i < hi; i = a.runEnd(l, i, hi) {
			n++
		}
	}
	keys, starts = make([]int64, 0, n), make([]int, 0, n+1)
	for e := range len(parent) - 1 {
		for i, hi := parent[e], parent[e+1]; i < hi; i = a.runEnd(l, i, hi) {
			keys = append(keys, a.value(l, i))
			starts = append(starts, i)
		}
	}
	return keys, append(starts, a.rows)
}

// Open descends to the first key one level below the current position.
func (a *arrayTrie) Open() {
	d := a.depth + 1
	l := &a.levels[d]
	switch {
	case d > 0:
		p := &a.levels[d-1]
		l.lo, l.hi = p.child[p.pos], p.child[p.pos+1]
	case l.leaf:
		l.lo, l.hi = 0, a.rows
	default:
		l.lo, l.hi = 0, len(l.keys)
	}
	a.depth = d
	a.move(l, l.lo)
}

// Up ascends one level, restoring the parent position.
func (a *arrayTrie) Up() {
	a.depth--
}

// cur returns the current level.
func (a *arrayTrie) cur() *level { return &a.levels[a.depth] }

// Next advances to the next key at the current level; it may hit the end.
func (a *arrayTrie) Next() { a.next(a.cur()) }

// SeekGE advances to the least key ≥ v at the current level; it may hit
// the end. SeekGE never moves backwards.
func (a *arrayTrie) SeekGE(v int64) { a.seekGE(a.cur(), v) }

// next is Next at level l.
func (a *arrayTrie) next(l *level) {
	switch {
	case l.end:
	case l.leaf:
		a.move(l, a.keyRunEnd(l))
	default:
		a.move(l, l.pos+1)
	}
}

// seekGE is SeekGE at level l. A directory level gallops over its keys.
// At the leaf the target word is the current row's bits above the column
// with v's offset in the column's field, so one gallop over whole words
// finds it.
func (a *arrayTrie) seekGE(l *level, v int64) {
	if l.end || l.key >= v {
		return
	}
	a.seeks++
	if !l.leaf {
		a.move(l, gallop(l.keys, 1, l.pos+1, l.hi, v))
		return
	}
	off := uint64(v) - uint64(l.min) // > 0: v exceeds the current key
	if off > l.mask {
		l.pos, l.end = l.hi, true // beyond the column's range
		return
	}
	col := a.words[l.word:]
	above := col[l.pos*a.w] &^ (l.mask<<(l.shift&63) | l.low)
	a.move(l, gallop(col, a.w, l.pos+1, l.hi, above|off<<(l.shift&63)))
}

// move positions level l at entry or row i, reading its key unless i is
// past the level's range.
func (a *arrayTrie) move(l *level, i int) {
	l.pos, l.end = i, i >= l.hi
	switch {
	case l.end:
	case l.leaf:
		l.key = a.value(l, i)
	default:
		l.key = l.keys[i]
	}
}

// Key returns the key at the current position. Only valid when !AtEnd.
func (a *arrayTrie) Key() int64 { return a.levels[a.depth].key }

// value decodes level l's column of row i. (A shift of 64 only occurs with
// a zero mask, so masking it to 63 changes no value.)
func (a *arrayTrie) value(l *level, i int) int64 {
	return l.min + int64(a.words[i*a.w+l.word]>>(l.shift&63)&l.mask)
}

// AtEnd reports whether the iterator moved past the last key at the
// current level.
func (a *arrayTrie) AtEnd() bool { return a.levels[a.depth].end }

// clone returns an independent iterator over the same (shared, immutable)
// backing array and directories, positioned at the virtual root with a
// fresh seek counter. Shards use it to walk disjoint ranges of one
// relation concurrently.
func (a *arrayTrie) clone() *arrayTrie {
	c := *a
	c.levels = slices.Clone(a.levels)
	c.depth, c.seeks = -1, 0
	return &c
}

// keyRunEnd is runEnd from level l's current row, a search it counts.
func (a *arrayTrie) keyRunEnd(l *level) int {
	a.seeks++
	return a.runEnd(l, l.pos, l.hi)
}

// runEnd returns the row one past the run of rows within [i, hi) that
// share level l's column with row i, whose rows in [i, hi) share every
// earlier column: the first row whose word exceeds row i's with every bit
// below the column's field set.
func (a *arrayTrie) runEnd(l *level, i, hi int) int {
	col := a.words[l.word:]
	last := col[i*a.w] | l.low
	switch {
	case last == math.MaxUint64:
		return hi
	case i+1 == hi || col[(i+1)*a.w] > last:
		return i + 1 // most runs end at once: gallop only longer ones
	}
	return gallop(col, a.w, i+2, hi, last+1)
}

// lowerBound returns the smallest row index i in [lo, hi) with
// col[i·stride] ≥ v, or hi when none exists. col is a row-major word array
// re-sliced to start at the searched word, so row i's word is one load.
func lowerBound[T int64 | uint64](col []T, stride, lo, hi int, v T) int {
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
func gallop[T int64 | uint64](col []T, stride, lo, hi int, v T) int {
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
