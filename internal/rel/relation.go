package rel

import (
	"cmp"
	"fmt"
	"slices"
)

// Schema names the columns of a relation, in positional order.
type Schema []string

// IndexOf returns the position of the named column, or -1 if absent.
func (s Schema) IndexOf(name string) int {
	for i, n := range s {
		if n == name {
			return i
		}
	}
	return -1
}

// Clone returns an independent copy of the schema.
func (s Schema) Clone() Schema {
	c := make(Schema, len(s))
	copy(c, s)
	return c
}

// Equal reports whether two schemas have the same columns in the same order.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Relation is a named bag of tuples with a schema. A Relation is a plain
// in-memory value: the engine moves them between workers, the joins consume
// them, and the dataset generators produce them.
type Relation struct {
	Name   string
	Schema Schema
	Tuples []Tuple
}

// New returns an empty relation with the given name and column names.
func New(name string, columns ...string) *Relation {
	return &Relation{Name: name, Schema: Schema(columns)}
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return len(r.Schema) }

// Cardinality returns the number of tuples.
func (r *Relation) Cardinality() int { return len(r.Tuples) }

// Append adds a tuple. It panics when the arity does not match the schema, a
// condition that is always a programming error rather than a data error.
func (r *Relation) Append(t Tuple) {
	if len(t) != len(r.Schema) {
		panic(fmt.Sprintf("rel: appending arity-%d tuple to relation %q with arity %d",
			len(t), r.Name, len(r.Schema)))
	}
	r.Tuples = append(r.Tuples, t)
}

// AppendRow is Append with variadic values, convenient in tests.
func (r *Relation) AppendRow(vals ...int64) {
	r.Append(Tuple(vals))
}

// Clone deep-copies the relation.
func (r *Relation) Clone() *Relation {
	c := &Relation{Name: r.Name, Schema: r.Schema.Clone(), Tuples: make([]Tuple, len(r.Tuples))}
	for i, t := range r.Tuples {
		c.Tuples[i] = t.Clone()
	}
	return c
}

// Sort orders the tuples lexicographically in place and returns the relation
// for chaining. Tributary join requires its inputs sorted this way, after the
// columns have been permuted to the global variable order.
func (r *Relation) Sort() *Relation {
	slices.SortFunc(r.Tuples, Tuple.Compare)
	return r
}

// SortBy orders the tuples by the given column indexes (lexicographically on
// that projection, remaining columns as tie-breakers in schema order).
func (r *Relation) SortBy(cols []int) *Relation {
	slices.SortFunc(r.Tuples, func(a, b Tuple) int {
		for _, c := range cols {
			if d := cmp.Compare(a[c], b[c]); d != 0 {
				return d
			}
		}
		return a.Compare(b)
	})
	return r
}

// IsSorted reports whether the tuples are in lexicographic order.
func (r *Relation) IsSorted() bool {
	return slices.IsSortedFunc(r.Tuples, Tuple.Compare)
}

// Dedup removes duplicate tuples in place. The relation is sorted as a side
// effect. It returns the relation for chaining.
func (r *Relation) Dedup() *Relation {
	r.Sort()
	out := r.Tuples[:0]
	for i, t := range r.Tuples {
		if i == 0 || !t.Equal(r.Tuples[i-1]) {
			out = append(out, t)
		}
	}
	r.Tuples = out
	return r
}

// Project returns a new relation with the columns at the given indexes. The
// result keeps duplicates (bag semantics); call Dedup for set semantics.
func (r *Relation) Project(name string, cols []int) *Relation {
	s := make(Schema, len(cols))
	for i, c := range cols {
		s[i] = r.Schema[c]
	}
	p := &Relation{Name: name, Schema: s, Tuples: make([]Tuple, 0, len(r.Tuples))}
	for _, t := range r.Tuples {
		p.Tuples = append(p.Tuples, t.Project(cols))
	}
	return p
}

// ProjectNames is Project with column names instead of indexes.
func (r *Relation) ProjectNames(name string, columns ...string) *Relation {
	cols := make([]int, len(columns))
	for i, c := range columns {
		idx := r.Schema.IndexOf(c)
		if idx < 0 {
			panic(fmt.Sprintf("rel: relation %q has no column %q", r.Name, c))
		}
		cols[i] = idx
	}
	return r.Project(name, cols)
}

// Select returns a new relation holding the tuples for which keep returns
// true.
func (r *Relation) Select(name string, keep func(Tuple) bool) *Relation {
	s := &Relation{Name: name, Schema: r.Schema.Clone()}
	for _, t := range r.Tuples {
		if keep(t) {
			s.Tuples = append(s.Tuples, t)
		}
	}
	return s
}

// Rename returns a shallow copy of the relation under a new name with new
// column names. The tuple slice is shared: renaming is how self-join aliases
// (Twitter_R, Twitter_S, ...) are made without copying the data.
func (r *Relation) Rename(name string, columns ...string) *Relation {
	if len(columns) != len(r.Schema) {
		panic(fmt.Sprintf("rel: renaming relation %q (arity %d) with %d column names",
			r.Name, len(r.Schema), len(columns)))
	}
	return &Relation{Name: name, Schema: Schema(columns), Tuples: r.Tuples}
}

// Equal reports whether two relations hold the same bag of tuples, ignoring
// order, name, and column names (arity must match).
func (r *Relation) Equal(o *Relation) bool {
	if len(r.Schema) != len(o.Schema) || len(r.Tuples) != len(o.Tuples) {
		return false
	}
	a, b := r.Clone().Sort(), o.Clone().Sort()
	for i := range a.Tuples {
		if !a.Tuples[i].Equal(b.Tuples[i]) {
			return false
		}
	}
	return true
}

func (r *Relation) String() string {
	return fmt.Sprintf("%s%v[%d tuples]", r.Name, []string(r.Schema), len(r.Tuples))
}
