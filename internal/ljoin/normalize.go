package ljoin

import (
	"parajoin/internal/core"
	"parajoin/internal/rel"
)

// Normalizer applies one atom's normalization tuple by tuple: rows
// violating the atom's constant bindings or repeated-variable equalities
// are dropped, the rest are projected onto the atom's distinct variables
// in global-order position. It is the streaming form of NormalizeAtom,
// used by the engine, which must normalize before its sort sees a tuple
// (the sort order is defined on the permuted columns).
type Normalizer struct {
	schema rel.Schema
	srcs   []int
	checks []normCheck
}

// normCheck is one per-tuple constraint: position pos must equal either a
// constant (eq < 0) or the value at position eq (a repeated variable).
type normCheck struct {
	pos int
	eq  int
	c   int64
}

// NewNormalizer builds the normalizer for atom under the global variable
// order.
func NewNormalizer(atom core.Atom, order []core.Var) *Normalizer {
	pos := make(map[core.Var]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	type colSrc struct {
		v   core.Var
		src int
	}
	var cols []colSrc
	n := &Normalizer{}
	firstPos := make(map[core.Var]int)
	for i, t := range atom.Terms {
		if t.IsVar {
			if first, ok := firstPos[t.Var]; ok {
				n.checks = append(n.checks, normCheck{pos: i, eq: first})
			} else {
				firstPos[t.Var] = i
				cols = append(cols, colSrc{t.Var, i})
			}
		} else {
			n.checks = append(n.checks, normCheck{pos: i, eq: -1, c: t.Const})
		}
	}
	for i := 1; i < len(cols); i++ {
		for j := i; j > 0 && pos[cols[j].v] < pos[cols[j-1].v]; j-- {
			cols[j], cols[j-1] = cols[j-1], cols[j]
		}
	}
	n.schema = make(rel.Schema, len(cols))
	n.srcs = make([]int, len(cols))
	for i, c := range cols {
		n.schema[i] = string(c.v)
		n.srcs[i] = c.src
	}
	return n
}

// Arity is the normalized arity (the atom's distinct variable count).
func (n *Normalizer) Arity() int { return len(n.srcs) }

// Schema is the normalized schema: distinct variables in global order.
func (n *Normalizer) Schema() rel.Schema { return n.schema }

// Filters reports whether the atom can drop tuples: it binds a constant or
// repeats a variable.
func (n *Normalizer) Filters() bool { return len(n.checks) > 0 }

// Match reports whether a tuple in the atom's term layout satisfies the
// atom's constant bindings and repeated-variable equalities.
func (n *Normalizer) Match(t rel.Tuple) bool {
	for _, c := range n.checks {
		want := c.c
		if c.eq >= 0 {
			want = t[c.eq]
		}
		if t[c.pos] != want {
			return false
		}
	}
	return true
}

// Apply normalizes one tuple, reporting ok=false when the tuple violates
// the atom's constraints. The returned tuple is freshly allocated.
func (n *Normalizer) Apply(t rel.Tuple) (rel.Tuple, bool) {
	if !n.Match(t) {
		return nil, false
	}
	return t.Project(n.srcs), true
}

// ApplyInto is Apply writing into dst (of length Arity) instead of a fresh
// tuple, so a caller that copies the result on — the engine's Sorter
// — normalizes every row into one reused buffer. dst is left unspecified
// when ok is false.
func (n *Normalizer) ApplyInto(dst, t rel.Tuple) bool {
	if !n.Match(t) {
		return false
	}
	for i, c := range n.srcs {
		dst[i] = t[c]
	}
	return true
}

// NormalizeAtom turns an atom's relation into the form Tributary join
// consumes: rows violating the atom's constant bindings or repeated-variable
// equalities are dropped, and the remaining columns are the atom's distinct
// variables ordered by the global variable order.
func NormalizeAtom(atom core.Atom, r *rel.Relation, order []core.Var) *rel.Relation {
	n := NewNormalizer(atom, order)
	out := &rel.Relation{Name: atom.Alias, Schema: n.Schema()}
	for _, t := range r.Tuples {
		if nt, ok := n.Apply(t); ok {
			out.Tuples = append(out.Tuples, nt)
		}
	}
	return out
}
