// Package core defines the conjunctive query model: variables, atoms,
// comparison filters, the query hypergraph, and the structural analyses
// (acyclicity, join trees) that the planner and the semijoin machinery need.
//
// Queries are written in the paper's datalog notation, either directly as
// values or through ParseRule:
//
//	Triangle(x,y,z) :- R(x,y), S(y,z), T(z,x)
package core

import (
	"fmt"
	"strings"
)

// Var is a query variable.
type Var string

// Term is one argument position of an atom: a variable, an int64 constant
// (string constants are dictionary-encoded to int64 before they reach a
// Term), or a positional parameter placeholder ("?" in a rule) awaiting a
// constant at execution time.
type Term struct {
	Var   Var
	Const int64
	IsVar bool
	// IsParam marks a parameter placeholder; Const then holds its
	// zero-based positional index. A query containing parameter terms must
	// be bound with Query.Bind before it can be planned or executed.
	IsParam bool
}

// V returns a variable term.
func V(name string) Term { return Term{Var: Var(name), IsVar: true} }

// C returns a constant term.
func C(v int64) Term { return Term{Const: v} }

// P returns the idx-th positional parameter placeholder.
func P(idx int) Term { return Term{Const: int64(idx), IsParam: true} }

func (t Term) String() string {
	if t.IsVar {
		return string(t.Var)
	}
	if t.IsParam {
		return "?"
	}
	return fmt.Sprint(t.Const)
}

// Atom is one subgoal: a relation name applied to terms. Relation is the
// name the catalog resolves to a base relation; self-joins use the same
// Relation in several atoms. Alias distinguishes the occurrences (it defaults
// to "Relation#<index in query>" when empty).
type Atom struct {
	Relation string
	Alias    string
	Terms    []Term
}

// NewAtom builds an atom over the named relation with the given terms.
func NewAtom(relation string, terms ...Term) Atom {
	return Atom{Relation: relation, Terms: terms}
}

// Vars returns the distinct variables of the atom in term order.
func (a Atom) Vars() []Var {
	seen := make(map[Var]bool, len(a.Terms))
	var vs []Var
	for _, t := range a.Terms {
		if t.IsVar && !seen[t.Var] {
			seen[t.Var] = true
			vs = append(vs, t.Var)
		}
	}
	return vs
}

// HasVar reports whether the atom mentions v.
func (a Atom) HasVar(v Var) bool {
	for _, t := range a.Terms {
		if t.IsVar && t.Var == v {
			return true
		}
	}
	return false
}

// VarPositions returns the term indexes at which v occurs.
func (a Atom) VarPositions(v Var) []int {
	var ps []int
	for i, t := range a.Terms {
		if t.IsVar && t.Var == v {
			ps = append(ps, i)
		}
	}
	return ps
}

// String renders the atom with its alias when it differs from the relation
// (diagnostic form; Rule renders the parseable form).
func (a Atom) String() string {
	name := a.Relation
	if a.Alias != "" && a.Alias != a.Relation {
		name = a.Alias + ":" + a.Relation
	}
	return name + "(" + a.termList() + ")"
}

// Rule renders the atom as it appears in a datalog rule: relation name
// only. Aliases are derived deterministically by NewQuery, so the
// undecorated form parses back to an equivalent query.
func (a Atom) Rule() string {
	return a.Relation + "(" + a.termList() + ")"
}

func (a Atom) termList() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	return strings.Join(parts, ",")
}

// CmpOp is a comparison operator in a filter predicate.
type CmpOp int

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return fmt.Sprintf("CmpOp(%d)", int(op))
}

// Eval applies the operator to two values.
func (op CmpOp) Eval(a, b int64) bool {
	switch op {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	}
	panic(fmt.Sprintf("core: invalid comparison operator %d", int(op)))
}

// Filter is a comparison predicate between a variable and a term, such as
// the f1>f2 condition of the paper's Q4 or the year range of Q7.
type Filter struct {
	Left  Var
	Op    CmpOp
	Right Term
}

// Vars returns the variables the filter mentions.
func (f Filter) Vars() []Var {
	if f.Right.IsVar && f.Right.Var != f.Left {
		return []Var{f.Left, f.Right.Var}
	}
	return []Var{f.Left}
}

func (f Filter) String() string {
	return fmt.Sprintf("%s%s%s", f.Left, f.Op, f.Right)
}

// Query is a conjunctive query with comparison filters: Head lists the
// projection variables (empty means all variables, i.e. a full conjunctive
// query), Atoms the joins, Filters the comparisons.
type Query struct {
	Name    string
	Head    []Var
	Atoms   []Atom
	Filters []Filter
}

// NewQuery builds a query and assigns default aliases to atoms that lack
// one, so every atom can be addressed unambiguously even in self-joins.
func NewQuery(name string, head []Var, atoms []Atom, filters ...Filter) (*Query, error) {
	q := &Query{Name: name, Head: head, Atoms: atoms, Filters: filters}
	counts := make(map[string]int)
	for i := range q.Atoms {
		a := &q.Atoms[i]
		if a.Alias == "" {
			counts[a.Relation]++
			if counts[a.Relation] == 1 {
				a.Alias = a.Relation
			} else {
				a.Alias = fmt.Sprintf("%s#%d", a.Relation, counts[a.Relation])
			}
		}
	}
	if err := q.validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustQuery is NewQuery that panics on error; for statically known queries.
func MustQuery(name string, head []Var, atoms []Atom, filters ...Filter) *Query {
	q, err := NewQuery(name, head, atoms, filters...)
	if err != nil {
		panic(err)
	}
	return q
}

func (q *Query) validate() error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("core: query %q has no atoms", q.Name)
	}
	aliases := make(map[string]bool)
	for _, a := range q.Atoms {
		if len(a.Terms) == 0 {
			return fmt.Errorf("core: query %q: atom %s has no terms", q.Name, a.Relation)
		}
		if aliases[a.Alias] {
			return fmt.Errorf("core: query %q: duplicate atom alias %q", q.Name, a.Alias)
		}
		aliases[a.Alias] = true
	}
	vars := q.varSet()
	for _, h := range q.Head {
		if !vars[h] {
			return fmt.Errorf("core: query %q: head variable %s not bound by any atom", q.Name, h)
		}
	}
	for _, f := range q.Filters {
		if !vars[f.Left] {
			return fmt.Errorf("core: query %q: filter %s uses unbound variable %s", q.Name, f, f.Left)
		}
		if f.Right.IsVar && !vars[f.Right.Var] {
			return fmt.Errorf("core: query %q: filter %s uses unbound variable %s", q.Name, f, f.Right.Var)
		}
	}
	return nil
}

func (q *Query) varSet() map[Var]bool {
	set := make(map[Var]bool)
	for _, a := range q.Atoms {
		for _, v := range a.Vars() {
			set[v] = true
		}
	}
	return set
}

// NumParams returns the number of positional parameter placeholders the
// query carries (0 for an ordinary, fully bound query).
func (q *Query) NumParams() int {
	n := 0
	count := func(t Term) {
		if t.IsParam && int(t.Const) >= n {
			n = int(t.Const) + 1
		}
	}
	for _, a := range q.Atoms {
		for _, t := range a.Terms {
			count(t)
		}
	}
	for _, f := range q.Filters {
		count(f.Right)
	}
	return n
}

// Bind substitutes constants for the query's parameter placeholders and
// returns the resulting fully bound query; q itself is not modified. args
// must supply exactly one value per parameter, in positional order.
func (q *Query) Bind(args []int64) (*Query, error) {
	n := q.NumParams()
	if len(args) != n {
		return nil, fmt.Errorf("core: query %q has %d parameters, got %d arguments", q.Name, n, len(args))
	}
	if n == 0 {
		return q, nil
	}
	sub := func(t Term) Term {
		if t.IsParam {
			return C(args[t.Const])
		}
		return t
	}
	atoms := make([]Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		terms := make([]Term, len(a.Terms))
		for j, t := range a.Terms {
			terms[j] = sub(t)
		}
		atoms[i] = Atom{Relation: a.Relation, Alias: a.Alias, Terms: terms}
	}
	filters := make([]Filter, len(q.Filters))
	for i, f := range q.Filters {
		filters[i] = Filter{Left: f.Left, Op: f.Op, Right: sub(f.Right)}
	}
	return NewQuery(q.Name, append([]Var(nil), q.Head...), atoms, filters...)
}

// Vars returns all variables of the query, in order of first appearance
// across the atoms.
func (q *Query) Vars() []Var {
	seen := make(map[Var]bool)
	var vs []Var
	for _, a := range q.Atoms {
		for _, v := range a.Vars() {
			if !seen[v] {
				seen[v] = true
				vs = append(vs, v)
			}
		}
	}
	return vs
}

// JoinVars returns the variables shared by at least two atoms, in order of
// first appearance. These are the variables the HyperCube shuffle hashes on:
// one hypercube dimension per join variable.
func (q *Query) JoinVars() []Var {
	count := make(map[Var]int)
	for _, a := range q.Atoms {
		for _, v := range a.Vars() {
			count[v]++
		}
	}
	var vs []Var
	for _, v := range q.Vars() {
		if count[v] >= 2 {
			vs = append(vs, v)
		}
	}
	return vs
}

// AtomsWith returns the indexes of the atoms that mention v.
func (q *Query) AtomsWith(v Var) []int {
	var idx []int
	for i, a := range q.Atoms {
		if a.HasVar(v) {
			idx = append(idx, i)
		}
	}
	return idx
}

// IsFull reports whether the query projects every variable (a "full"
// conjunctive query in the paper's terminology).
func (q *Query) IsFull() bool {
	if len(q.Head) == 0 {
		return true
	}
	return len(q.Head) == len(q.Vars())
}

// HeadVars returns the projection variables, defaulting to all variables for
// a full query.
func (q *Query) HeadVars() []Var {
	if len(q.Head) == 0 {
		return q.Vars()
	}
	return q.Head
}

// FiltersOn returns the filters whose variables are all contained in bound.
func (q *Query) FiltersOn(bound map[Var]bool) []Filter {
	var fs []Filter
	for _, f := range q.Filters {
		ok := bound[f.Left]
		if f.Right.IsVar {
			ok = ok && bound[f.Right.Var]
		}
		if ok {
			fs = append(fs, f)
		}
	}
	return fs
}

func (q *Query) String() string {
	var b strings.Builder
	b.WriteString(q.Name)
	b.WriteByte('(')
	for i, h := range q.HeadVars() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(h))
	}
	b.WriteString(") :- ")
	for i, a := range q.Atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Rule())
	}
	for _, f := range q.Filters {
		b.WriteString(", ")
		b.WriteString(f.String())
	}
	return b.String()
}
