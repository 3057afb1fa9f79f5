// Package rel provides the tuple and relation representation used throughout
// parajoin: fixed-arity rows of int64 values, plus the sorting, partitioning,
// and set-style helpers the shuffle and join layers are built on.
//
// All attribute values are int64. String-valued attributes (for example the
// name column of a knowledge-base relation) are dictionary-encoded with Dict
// before they enter a Relation, mirroring how column stores and the paper's
// evaluation treat selections on string constants: the constant is translated
// to its code once, and the rest of the pipeline only ever compares integers.
package rel

import "fmt"

// Tuple is one row of a relation. Tuples are positional; the meaning of each
// column comes from the Relation's Schema.
type Tuple []int64

// Clone returns a copy of t that shares no backing storage with it.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Compare orders two tuples lexicographically. It panics if the tuples have
// different arities, because comparing tuples from different schemas is
// always a caller bug.
func (t Tuple) Compare(o Tuple) int {
	if len(t) != len(o) {
		panic(fmt.Sprintf("rel: comparing tuples of arity %d and %d", len(t), len(o)))
	}
	for i := range t {
		switch {
		case t[i] < o[i]:
			return -1
		case t[i] > o[i]:
			return 1
		}
	}
	return 0
}

// Equal reports whether two tuples have the same arity and values.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

// Project returns a new tuple holding the columns of t at the given indexes,
// in that order. Indexes may repeat.
func (t Tuple) Project(cols []int) Tuple {
	p := make(Tuple, len(cols))
	for i, c := range cols {
		p[i] = t[c]
	}
	return p
}

func (t Tuple) String() string {
	return fmt.Sprint([]int64(t))
}

// Batch is rows of one arity laid out flat: row i is Vals[i*Arity :
// (i+1)*Arity]. It counts its rows, since rows of arity 0 take no values.
type Batch struct {
	Vals  []int64
	Arity int
	rows  int
}

// BatchOf returns the batch of rows rows of the given arity in vals.
func BatchOf(arity, rows int, vals []int64) Batch { return Batch{vals, arity, rows} }

// Len returns the batch's row count.
func (b *Batch) Len() int { return b.rows }

// Row returns row i as a view of the batch's values, its capacity clamped
// so that appending to it never writes into the next row.
func (b *Batch) Row(i int) Tuple {
	a := b.Arity
	return b.Vals[i*a : (i+1)*a : (i+1)*a]
}

// Append copies t in as the batch's last row. A row that fits in the
// batch's spare capacity is written value by value: for the rows of two
// to four values that exchanges and joins move, indexed stores cost less
// than the runtime.memmove call append makes.
func (b *Batch) Append(t Tuple) {
	n := len(b.Vals)
	if n+len(t) > cap(b.Vals) {
		b.Vals = append(b.Vals, t...)
	} else {
		b.Vals = b.Vals[:n+len(t)]
		for i, v := range t {
			b.Vals[n+i] = v
		}
	}
	b.rows++
}

// Extend adds one row to the batch and returns it, for the caller to fill
// in place. The batch must have room for it.
func (b *Batch) Extend() Tuple {
	n := len(b.Vals)
	b.Vals = b.Vals[:n+b.Arity]
	b.rows++
	return b.Vals[n : n+b.Arity : n+b.Arity]
}
