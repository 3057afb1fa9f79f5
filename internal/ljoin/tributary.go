package ljoin

import (
	"fmt"

	"parajoin/internal/core"
	"parajoin/internal/rel"
)

// Tributary join (Section 2.2 of the paper): a worst-case-optimal multiway
// join implementing the Leapfrog Triejoin API over sorted arrays. All input
// relations are sorted lexicographically under one global variable order;
// the join then intersects the relations one variable at a time, descending
// recursively into residual relations that are contiguous sub-arrays.

// Stats reports the work a Tributary join performed.
type Stats struct {
	// Seeks is the number of searches: every trie SeekGE that moves and
	// every leaf run-end search (see arrayTrie), the quantity the
	// Section-5 cost model estimates.
	Seeks int64
	// Results is the number of tuples emitted.
	Results int64
}

// Prepared is a Tributary join ready to run: inputs normalized, sorted,
// packed, and wrapped in trie iterators.
type Prepared struct {
	q     *core.Query
	order []core.Var

	tries            []*arrayTrie    // one per atom with variables
	byLevel          [][]int         // byLevel[d] = indexes of tries that include level d's variable
	iters            [][]*arrayTrie  // iters[d]: level d's tries, refilled from byLevel[d] at each entry
	filters          [][]core.Filter // filters that become checkable exactly at depth d
	filterIx         [][][2]int      // per depth, per filter: operand positions in the binding (-1 = constant)
	headIdx          []int           // binding positions of the head variables
	results          int64
	emptyGuardFailed bool

	// stop, when set, is polled every 4096 bound values; returning true
	// aborts the run. The engine cancels joins with it, and the order study
	// bounds known-bad variable orders with it.
	stop      func() bool
	stopSteps int64
	stopped   bool

	// Level-0 range restriction (set by Shards): the join enumerates only
	// first-variable values v with (!hasLo || v ≥ lo) && (!hasHi || v < hi).
	// Deeper levels are untouched — they already descend from a level-0
	// binding. Both unset (the default) means the full domain.
	lo, hi       int64
	hasLo, hasHi bool
}

// Sorted is one normalized, lexicographically sorted join input in packed
// form: Rows rows of Layout.Words() words each, row after row in Words,
// whose unsigned lexicographic order is the rows' order (rel.KeyPacker
// over the input's columns decodes them). A fully-constant atom is an
// existence guard: no columns, and Rows 0 when no row matched (the engine
// passes 0 or 1).
type Sorted struct {
	Rows   int
	Words  []uint64
	Layout rel.KeyPacker
}

// pack lays a sorted relation out as Sorted, under the layout its
// columns' ranges call for.
func pack(r *rel.Relation) Sorted {
	a := r.Arity()
	lo, hi := make([]int64, a), make([]int64, a)
	if len(r.Tuples) > 0 {
		copy(lo, r.Tuples[0])
		copy(hi, r.Tuples[0])
	}
	for _, t := range r.Tuples {
		for j, v := range t {
			lo[j], hi[j] = min(lo[j], v), max(hi[j], v)
		}
	}
	s := Sorted{Rows: len(r.Tuples), Layout: rel.NewRowPacker(lo, hi)}
	w := s.Layout.Words()
	s.Words = make([]uint64, s.Rows*w)
	for i, t := range r.Tuples {
		s.Layout.PackInto(s.Words[i*w:(i+1)*w], t)
	}
	return s
}

// Prepare normalizes each atom's relation (applying constant selections,
// repeated-variable equalities, and the column permutation dictated by the
// global variable order), sorts and packs it, and builds the trie
// iterators. relations maps atom aliases to relations whose columns follow
// the atom's term layout.
func Prepare(q *core.Query, relations map[string]*rel.Relation, order []core.Var) (*Prepared, error) {
	return prepare(q, order, func(atom core.Atom) (Sorted, error) {
		r := relations[atom.Alias]
		if r == nil {
			return Sorted{}, fmt.Errorf("ljoin: no relation bound to atom %q", atom.Alias)
		}
		if len(r.Schema) != len(atom.Terms) {
			return Sorted{}, fmt.Errorf("ljoin: atom %s has %d terms but relation %s has arity %d",
				atom, len(atom.Terms), r.Name, len(r.Schema))
		}
		norm := NormalizeAtom(atom, r, order)
		norm.Sort()
		return pack(norm), nil
	})
}

// PrepareSorted is Prepare for inputs that are already normalized (each
// input's columns are its atom's distinct variables in global-order
// position), sorted and packed. The engine uses it: tuples are normalized
// with a Normalizer before its sort, and the sort hands over its packed
// keys, so by the time they reach the trie builder every step is done.
func PrepareSorted(q *core.Query, inputs map[string]Sorted, order []core.Var) (*Prepared, error) {
	return prepare(q, order, func(atom core.Atom) (Sorted, error) {
		s, ok := inputs[atom.Alias]
		if !ok {
			return Sorted{}, fmt.Errorf("ljoin: no relation bound to atom %q", atom.Alias)
		}
		return s, nil
	})
}

// prepare builds a Prepared join, pulling each atom's normalized, sorted
// input from supply.
func prepare(q *core.Query, order []core.Var, supply func(core.Atom) (Sorted, error)) (*Prepared, error) {
	if err := checkOrder(q, order); err != nil {
		return nil, err
	}
	pos := make(map[core.Var]int, len(order))
	for i, v := range order {
		pos[v] = i
	}

	p := &Prepared{q: q, order: order}
	p.byLevel = make([][]int, len(order))
	for _, atom := range q.Atoms {
		in, err := supply(atom)
		if err != nil {
			return nil, err
		}
		if len(in.Layout.Fields()) == 0 {
			// Fully-constant atom: an existence guard.
			if in.Rows == 0 {
				p.emptyGuardFailed = true
			}
			continue
		}
		idx := len(p.tries)
		p.tries = append(p.tries, newArrayTrie(in))
		for _, v := range atom.Vars() {
			p.byLevel[pos[v]] = append(p.byLevel[pos[v]], idx)
		}
	}
	p.iters = levelIters(p.byLevel)

	// Attach each filter to the first depth where all its operands are bound.
	p.filters = make([][]core.Filter, len(order))
	p.filterIx = make([][][2]int, len(order))
	for _, f := range q.Filters {
		d := pos[f.Left]
		ri := -1
		if f.Right.IsVar {
			if pos[f.Right.Var] > d {
				d = pos[f.Right.Var]
			}
			ri = pos[f.Right.Var]
		}
		p.filters[d] = append(p.filters[d], f)
		p.filterIx[d] = append(p.filterIx[d], [2]int{pos[f.Left], ri})
	}

	for _, h := range q.HeadVars() {
		p.headIdx = append(p.headIdx, pos[h])
	}
	return p, nil
}

// levelIters allocates the per-level iterator slices a join refills at
// every entry into a level, sized by the participants of each level.
func levelIters(byLevel [][]int) [][]*arrayTrie {
	iters := make([][]*arrayTrie, len(byLevel))
	for d, ps := range byLevel {
		iters[d] = make([]*arrayTrie, len(ps))
	}
	return iters
}

func checkOrder(q *core.Query, order []core.Var) error {
	vars := q.Vars()
	if len(order) != len(vars) {
		return fmt.Errorf("ljoin: order %v has %d variables, query has %d", order, len(order), len(vars))
	}
	seen := make(map[core.Var]bool, len(order))
	for _, v := range order {
		if seen[v] {
			return fmt.Errorf("ljoin: variable %s repeated in order", v)
		}
		seen[v] = true
	}
	for _, v := range vars {
		if !seen[v] {
			return fmt.Errorf("ljoin: order %v misses variable %s", order, v)
		}
	}
	return nil
}

// Run executes the join, calling emit for every result tuple (laid out as
// the query's head variables). The tuple is overwritten by the next
// result, so emit copies what it keeps. emit returning false stops the
// join early. Run may be called once per Prepared value.
func (p *Prepared) Run(emit func(rel.Tuple) bool) error {
	if p.emptyGuardFailed {
		return nil
	}
	for d, atomIdx := range p.byLevel {
		if len(atomIdx) == 0 {
			return fmt.Errorf("ljoin: variable %s bound by no atom", p.order[d])
		}
	}
	binding := make(rel.Tuple, len(p.order))
	out := make(rel.Tuple, len(p.headIdx))
	if len(p.order) == 0 {
		// No variable to join on: every atom is an existence guard, and
		// they all held, so the answer is the one empty row.
		p.results++
		emit(out)
		return nil
	}
	p.join(0, binding, out, emit)
	return nil
}

// join enumerates the values of variable level d consistent with the
// current bindings, recursing to deeper levels. It opens level d on every
// participating trie, intersects, and ascends again.
func (p *Prepared) join(d int, binding, out rel.Tuple, emit func(rel.Tuple) bool) bool {
	// The leapfrog reorders iters, so refill it from byLevel at each entry.
	iters := p.iters[d]
	for i, ti := range p.byLevel[d] {
		iters[i] = p.tries[ti]
		iters[i].Open()
	}
	ok := p.intersect(d, iters, binding, out, emit)
	for _, it := range iters {
		it.Up()
	}
	return ok
}

// intersect enumerates the values common to level d's opened iterators in
// ascending order, binding each and descending. It returns false when the
// join stops.
func (p *Prepared) intersect(d int, iters []*arrayTrie, binding, out rel.Tuple, emit func(rel.Tuple) bool) bool {
	lf := leapfrog{iters: iters}
	lf.init()
	if d == 0 && p.hasLo && !lf.atEnd && lf.key() < p.lo {
		lf.seek(p.lo)
	}
	for !lf.atEnd {
		if d == 0 && p.hasHi && lf.key() >= p.hi {
			break
		}
		if !p.visit(d, lf.key(), binding, out, emit) {
			return false
		}
		lf.next()
	}
	return true
}

// visit binds level d to the common value v: it polls the stop check
// every 4096 values, applies level d's filters, and emits the result row
// at the last level or descends. It returns false when the join stops.
func (p *Prepared) visit(d int, v int64, binding, out rel.Tuple, emit func(rel.Tuple) bool) bool {
	if p.stop != nil {
		p.stopSteps++
		if p.stopSteps&4095 == 0 && p.stop() {
			p.stopped = true
			return false
		}
	}
	binding[d] = v
	if !p.checkFilters(d, binding) {
		return true
	}
	if d < len(p.order)-1 {
		return p.join(d+1, binding, out, emit)
	}
	for i, ix := range p.headIdx {
		out[i] = binding[ix]
	}
	p.results++
	return emit(out)
}

func (p *Prepared) checkFilters(d int, binding rel.Tuple) bool {
	for i, f := range p.filters[d] {
		ix := p.filterIx[d][i]
		left := binding[ix[0]]
		right := f.Right.Const
		if ix[1] >= 0 {
			right = binding[ix[1]]
		}
		if !f.Op.Eval(left, right) {
			return false
		}
	}
	return true
}

// SetStopCheck installs a predicate polled periodically during Run;
// returning true aborts the join (Run still returns nil — check Stopped).
func (p *Prepared) SetStopCheck(stop func() bool) { p.stop = stop }

// Stopped reports whether the last Run was aborted by the stop check.
func (p *Prepared) Stopped() bool { return p.stopped }

// Held returns the values the tries hold: each trie's packed words and
// its directories' keys and child offsets. Shards share them, so it is
// counted on the join they were cut from.
func (p *Prepared) Held() int64 {
	var n int
	for _, t := range p.tries {
		n += len(t.words)
		for _, l := range t.levels {
			n += len(l.keys) + len(l.child)
		}
	}
	return int64(n)
}

// Stats returns the work counters accumulated so far.
func (p *Prepared) Stats() Stats {
	s := Stats{Results: p.results}
	for _, t := range p.tries {
		s.Seeks += t.seeks
	}
	return s
}

// Evaluate runs a complete Tributary join and materializes the result. The
// output schema is the query's head variables; non-full queries are
// deduplicated (datalog set semantics).
func Evaluate(q *core.Query, relations map[string]*rel.Relation, order []core.Var) (*rel.Relation, Stats, error) {
	p, err := Prepare(q, relations, order)
	if err != nil {
		return nil, Stats{}, err
	}
	head := q.HeadVars()
	schema := make(rel.Schema, len(head))
	for i, h := range head {
		schema[i] = string(h)
	}
	out := &rel.Relation{Name: q.Name, Schema: schema}
	err = p.Run(func(t rel.Tuple) bool {
		out.Tuples = append(out.Tuples, t.Clone())
		return true
	})
	if err != nil {
		return nil, Stats{}, err
	}
	if !q.IsFull() {
		out.Dedup()
	}
	return out, p.Stats(), nil
}
