package engine

import (
	"math/bits"

	"parajoin/internal/rel"
)

// keyTable is the one keyed table behind the hash join's two sides, the
// semijoin's key set and the dedup set. Rows are copied into arena chunks
// the table owns (arity values per row, no pointers for the garbage
// collector to scan) and chained per key in insertion order. Row n sits
// in chunk n>>shift: the first chunk doubles from 64 values to a full
// keyChunk, later ones are allocated full, so a small table stays small.
// Keys live in an open-addressed slot array. A single-column key is its
// own hash; wider keys hash by a one-multiply fold per column (keyHash)
// and compare their columns on probe. A row is copied in by indexed
// stores, not a memmove call: rows are a few values wide.
type keyTable struct {
	arity, shift int
	cols         []int // the key columns of a stored row
	chunks       [][]int64
	next         []int32   // the next row with the same key; -1 ends a chain
	slots        []keySlot // power-of-two length, at most 3/4 used
	used         int
}

type keySlot struct {
	hash       uint64
	head, tail int32 // head is the first row + 1, so 0 marks an empty slot
}

// keyChunk is a full arena chunk in values: 32 KiB, the largest size
// class the allocator recycles without going to the page heap.
const keyChunk = 4096

func newKeyTable(arity int, cols []int) *keyTable {
	shift := bits.Len(uint(max(keyChunk/max(arity, 1), 1))) - 1
	first := min(max(64, arity), arity<<shift)
	return &keyTable{arity: arity, shift: shift, cols: cols,
		chunks: [][]int64{make([]int64, 0, first)}, slots: make([]keySlot, 8)}
}

// keyHash is the hash of t's key columns cols. A single column is its own
// hash. Wider keys fold each column in with one 64×64→128-bit multiply
// by 2⁶⁴/φ, keeping the high and low halves xored: one multiply per
// column, where rel.HashTuple's splitmix finalizer takes two multiplies
// and three xor-shifts. The first slot probed (home) mixes the result
// again, and equal hashes are told apart by comparing columns, so the
// fold only has to spread structured keys, which TestKeyHashProbeLengths
// pins. The exchange's placement hash is rel.HashTuple, not this.
func keyHash(t rel.Tuple, cols []int) uint64 {
	if len(cols) == 1 {
		return uint64(t[cols[0]])
	}
	var h uint64
	for _, c := range cols {
		hi, lo := bits.Mul64(h^uint64(t[c]), 0x9e3779b97f4a7c15)
		h = hi ^ lo
	}
	return h
}

func (k *keyTable) row(r int32) []int64 {
	off := int(r) & (1<<k.shift - 1) * k.arity
	return k.chunks[int(r)>>k.shift][off : off+k.arity]
}

// values returns the values the table's rows hold.
func (k *keyTable) values() int64 { return int64(len(k.next) * k.arity) }

// home is the first slot a key of hash h probes: the top bits of h times
// 2⁶⁴/φ (Fibonacci hashing).
func (k *keyTable) home(h uint64) uint64 {
	return h * 0x9e3779b97f4a7c15 >> (65 - bits.Len(uint(len(k.slots))))
}

// slot finds the slot holding the key t has in columns cols (hash h), or
// the empty slot where that key would go, probing linearly from home.
func (k *keyTable) slot(t rel.Tuple, cols []int, h uint64) *keySlot {
	mask := uint64(len(k.slots) - 1)
	for i := k.home(h); ; i = (i + 1) & mask {
		s := &k.slots[i]
		if s.head == 0 || s.hash == h && k.keyEqual(s.head-1, t, cols) {
			return s
		}
	}
}

func (k *keyTable) keyEqual(r int32, t rel.Tuple, cols []int) bool {
	if len(cols) == 1 {
		return true // the hash is the value
	}
	row := k.row(r)
	for i, c := range cols {
		if row[k.cols[i]] != t[c] {
			return false
		}
	}
	return true
}

// find returns the first row whose key equals t's in columns cols (hash
// h), or -1; next walks the rest of the chain in insertion order.
func (k *keyTable) find(t rel.Tuple, cols []int, h uint64) int32 {
	return k.slot(t, cols, h).head - 1
}

// insert copies t in as the last row under its key (hash h) and reports
// whether the key is new. With unique set, t is stored only if it is.
func (k *keyTable) insert(t rel.Tuple, h uint64, unique bool) bool {
	if 4*(k.used+1) > 3*len(k.slots) {
		old := k.slots
		k.slots = make([]keySlot, 2*len(old))
		for _, s := range old { // keys are distinct, so each probe ends empty
			if s.head != 0 {
				*k.slot(k.row(s.head-1), k.cols, s.hash) = s
			}
		}
	}
	s := k.slot(t, k.cols, h)
	if s.head != 0 && unique {
		return false
	}
	r := int32(len(k.next))
	c, full := int(r)>>k.shift, k.arity<<k.shift
	if c == len(k.chunks) {
		k.chunks = append(k.chunks, make([]int64, 0, full))
	} else if len(k.chunks[c])+k.arity > cap(k.chunks[c]) {
		k.chunks[c] = append(make([]int64, 0, min(2*cap(k.chunks[c]), full)), k.chunks[c]...)
	}
	n := len(k.chunks[c])
	ch := k.chunks[c][:n+k.arity]
	for i, v := range t[:k.arity] {
		ch[n+i] = v
	}
	k.chunks[c] = ch
	k.next = append(k.next, -1)
	if s.head == 0 {
		*s = keySlot{hash: h, head: r + 1, tail: r}
		k.used++
		return true
	}
	k.next[s.tail], s.tail = r, r
	return false
}
