package rel

import "math/bits"

// KeyPacker packs a tuple's projection onto fixed columns into one uint64
// whose unsigned order is the projection's lexicographic order: each
// column is offset by its minimum and given just enough bits for its
// range, the first column most significant. It exists only for columns
// whose ranges fit 64 bits together — always, for a few columns of node
// ids or dictionary codes. Equal keys are equal projections, so sorting
// or counting keys is sorting or counting the projections themselves.
type KeyPacker struct {
	cols   []int
	mins   []int64
	shifts []uint
	masks  []uint64
	width  int
}

// NewKeyPacker lays out cols for values in the per-column ranges
// [lo[i], hi[i]]. ok is false when the ranges need more than 64 bits.
func NewKeyPacker(cols []int, lo, hi []int64) (p KeyPacker, ok bool) {
	p = KeyPacker{cols: cols, mins: lo, shifts: make([]uint, len(cols)), masks: make([]uint64, len(cols))}
	for i := range cols {
		w := bits.Len64(uint64(hi[i]) - uint64(lo[i]))
		p.masks[i] = ^uint64(0) >> (64 - w)
		p.width += w
	}
	if p.width > 64 {
		return KeyPacker{}, false
	}
	shift := p.width
	for i := range cols {
		shift -= bits.Len64(p.masks[i])
		p.shifts[i] = uint(shift)
	}
	return p, true
}

// FitKeyPacker takes one min/max pass per column over tuples (which must
// be non-empty) and lays out cols for the observed ranges.
func FitKeyPacker(tuples []Tuple, cols []int) (KeyPacker, bool) {
	lo, hi := make([]int64, len(cols)), make([]int64, len(cols))
	for i, c := range cols {
		lo[i], hi[i] = tuples[0][c], tuples[0][c]
		for _, t := range tuples[1:] {
			lo[i], hi[i] = min(lo[i], t[c]), max(hi[i], t[c])
		}
	}
	return NewKeyPacker(cols, lo, hi)
}

// Width is the number of low key bits the layout uses.
func (p *KeyPacker) Width() int { return p.width }

// Pack returns the key of t's projection. t's packed columns must lie in
// the ranges the layout was made for.
func (p *KeyPacker) Pack(t Tuple) (k uint64) {
	for i, c := range p.cols {
		k |= (uint64(t[c]) - uint64(p.mins[i])) << p.shifts[i]
	}
	return k
}

// Unpack writes the projection packed in k back into dst's packed columns.
func (p *KeyPacker) Unpack(k uint64, dst Tuple) {
	for i, c := range p.cols {
		dst[c] = p.mins[i] + int64(k>>p.shifts[i]&p.masks[i])
	}
}
