package rel

import "math/bits"

// KeyPacker packs a tuple's projection onto fixed columns into Words()
// uint64 words whose unsigned lexicographic order is the projection's
// lexicographic order. Each column is offset by its minimum and described
// by a Field. When the columns' ranges fit 64 bits together — always, for
// a few columns of node ids or dictionary codes — the projection is one
// word, each column given just enough bits for its range, the first column
// most significant. Otherwise each column gets a word of its own (a single
// column's range always fits 64 bits). Equal keys are equal projections,
// so sorting or counting keys is sorting or counting the projections
// themselves.
type KeyPacker struct {
	cols   []int
	fields []Field
	words  int
	width  int
}

// Field locates one packed column: its value is
// Min + int64(row[Word]>>Shift & Mask). A column whose range is a single
// value has a zero Mask.
type Field struct {
	Word  int
	Shift uint
	Mask  uint64
	Min   int64
}

// NewRowPacker lays out every column of a row, column i in [lo[i], hi[i]]:
// in one word when the ranges fit 64 bits together, else a word per column.
func NewRowPacker(lo, hi []int64) KeyPacker {
	cols := make([]int, len(lo))
	for i := range cols {
		cols[i] = i
	}
	return newPacker(cols, lo, hi)
}

func newPacker(cols []int, lo, hi []int64) KeyPacker {
	p := KeyPacker{cols: cols, fields: make([]Field, len(cols)), words: 1}
	for i := range cols {
		w := bits.Len64(uint64(hi[i]) - uint64(lo[i]))
		p.fields[i] = Field{Mask: ^uint64(0) >> (64 - w), Min: lo[i]}
		p.width += w
	}
	if p.width > 64 {
		p.words = len(cols)
		for i := range p.fields {
			p.fields[i].Word = i
		}
		return p
	}
	shift := p.width
	for i := range p.fields {
		shift -= bits.Len64(p.fields[i].Mask)
		p.fields[i].Shift = uint(shift)
	}
	return p
}

// FitKeyPacker takes one min/max pass per column over tuples (which must
// be non-empty) and lays out cols for the observed ranges. ok is false
// when the ranges need more than one word.
func FitKeyPacker(tuples []Tuple, cols []int) (p KeyPacker, ok bool) {
	lo, hi := make([]int64, len(cols)), make([]int64, len(cols))
	for i, c := range cols {
		lo[i], hi[i] = tuples[0][c], tuples[0][c]
		for _, t := range tuples[1:] {
			lo[i], hi[i] = min(lo[i], t[c]), max(hi[i], t[c])
		}
	}
	p = newPacker(cols, lo, hi)
	return p, p.words == 1
}

// Width is the number of low key bits a one-word layout uses.
func (p *KeyPacker) Width() int { return p.width }

// Words is the number of words a packed projection takes.
func (p *KeyPacker) Words() int { return p.words }

// Fields describes the packed columns, in the order the layout was made
// for.
func (p *KeyPacker) Fields() []Field { return p.fields }

// Pack returns the one-word key of t's projection. t's packed columns must
// lie in the ranges the layout was made for, and the layout must be one
// word.
func (p *KeyPacker) Pack(t Tuple) (k uint64) {
	for i, c := range p.cols {
		f := &p.fields[i]
		k |= (uint64(t[c]) - uint64(f.Min)) << f.Shift
	}
	return k
}

// PackInto writes the key of t's projection into dst's Words() words.
func (p *KeyPacker) PackInto(dst []uint64, t Tuple) {
	if p.words == 1 {
		dst[0] = p.Pack(t)
		return
	}
	for i, c := range p.cols {
		dst[i] = uint64(t[c]) - uint64(p.fields[i].Min)
	}
}

// Unpack writes the projection packed in src's Words() words back into
// dst's packed columns.
func (p *KeyPacker) Unpack(src []uint64, dst Tuple) {
	for i, c := range p.cols {
		f := &p.fields[i]
		dst[c] = f.Min + int64(src[f.Word]>>f.Shift&f.Mask)
	}
}
