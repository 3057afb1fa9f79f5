// Package order implements Section 5 of the paper: a cost model that
// estimates the number of binary searches a Tributary join performs under a
// candidate global variable order, and optimizers that pick a good order.
//
// The model uses the standard statistics V(R, prefix) — the number of
// distinct values of a prefix of R's join attributes under the candidate
// order. The estimated intersection size at step i is
//
//	S_i = min over atoms R_j containing the i-th variable of
//	      V(R_j, p_{i,j}) / V(R_j, p_{i-1,j})
//
// (equation 3), and the total cost accumulates the expected number of
// searches across the recursion (equation 4):
//
//	Cost = S_1 + S_1·S_2 + S_1·S_2·S_3 + ...  = Σ_i Π_{j≤i} S_j.
package order

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"parajoin/internal/core"
	"parajoin/internal/ljoin"
	"parajoin/internal/rel"
	"parajoin/internal/stats"
)

// Estimator computes the cost of variable orders for one query over one set
// of relations. It never copies a relation: an atom without selections
// reads V(R, columns) from its relation's shared statistics, so atoms over
// one relation — and, given a catalog, queries over one data epoch — share
// every count.
type Estimator struct {
	vars  []core.Var
	index map[core.Var]int
	// byVar[i] lists the atoms binding vars[i], in query order.
	byVar [][]*atomStats
}

type atomStats struct {
	// vars is the bitmask over the query's variables that the atom binds;
	// col[i] is the base column of query variable i (its first position).
	vars uint64
	col  []int
	// st counts over the atom's relation — or, for an atom with constants
	// or a repeated variable, over the tuples that satisfy them.
	st *stats.RelationStats
	// cache maps a subset of vars to V(atom, subset).
	cache map[uint64]float64
}

// NewEstimator prepares an estimator that collects the statistics it needs
// itself. relations maps atom aliases to relations in the atom's term
// layout.
func NewEstimator(q *core.Query, relations map[string]*rel.Relation) (*Estimator, error) {
	return NewEstimatorWith(q, relations, nil)
}

// NewEstimatorWith is NewEstimator reading selection-free atoms' counts from
// catalog's entries where the catalog describes the very relation the atom
// is bound to, so counts made for one query serve the next.
func NewEstimatorWith(q *core.Query, relations map[string]*rel.Relation, catalog *stats.Catalog) (*Estimator, error) {
	e := &Estimator{vars: q.Vars(), index: map[core.Var]int{}}
	if len(e.vars) > 64 {
		return nil, fmt.Errorf("order: more than 64 variables")
	}
	for i, v := range e.vars {
		e.index[v] = i
	}
	e.byVar = make([][]*atomStats, len(e.vars))
	collected := map[*rel.Relation]*stats.RelationStats{}
	for _, atom := range q.Atoms {
		r := relations[atom.Alias]
		if r == nil {
			return nil, fmt.Errorf("order: no relation bound to atom %q", atom.Alias)
		}
		a := &atomStats{col: make([]int, len(e.vars)), cache: map[uint64]float64{}}
		for _, v := range atom.Vars() {
			i := e.index[v]
			a.vars |= 1 << uint(i)
			a.col[i] = atom.VarPositions(v)[0]
			e.byVar[i] = append(e.byVar[i], a)
		}
		if n := ljoin.NewNormalizer(atom, e.vars); n.Filters() {
			kept := &rel.Relation{Name: atom.Alias, Schema: r.Schema}
			for _, t := range r.Tuples {
				if n.Match(t) {
					kept.Tuples = append(kept.Tuples, t)
				}
			}
			a.st = stats.Collect(kept)
			continue
		}
		if a.st = catalog.For(r); a.st == nil {
			if collected[r] == nil {
				collected[r] = stats.Collect(r)
			}
			a.st = collected[r]
		}
	}
	return e, nil
}

// count returns V(atom, set) where set is a bitmask over the query's
// variables; variables the atom does not bind are ignored.
func (a *atomStats) count(set uint64) float64 {
	set &= a.vars
	if v, ok := a.cache[set]; ok {
		return v
	}
	cols := make([]int, 0, bits.OnesCount64(set))
	for m := set; m != 0; m &= m - 1 {
		cols = append(cols, a.col[bits.TrailingZeros64(m)])
	}
	v := float64(a.st.Prefix(cols))
	a.cache[set] = v
	return v
}

// step computes S_i for appending variable v to the prefix set: the minimum
// over atoms binding v of V(atom, prefix∪{v}) / V(atom, prefix).
func (e *Estimator) step(prefix uint64, v int) float64 {
	s := math.Inf(1)
	for _, a := range e.byVar[v] {
		est := 0.0
		if den := a.count(prefix); den != 0 {
			est = a.count(prefix|1<<uint(v)) / den
		}
		if est < s {
			s = est
		}
	}
	return s
}

// cost accumulates equation 4 along perm (indices into e.vars), giving up
// once the partial sum reaches bound: every term is non-negative, so the
// full cost could only be larger.
func (e *Estimator) cost(perm []int, bound float64) float64 {
	cost, prod := 0.0, 1.0
	var prefix uint64
	for _, v := range perm {
		prod *= e.step(prefix, v)
		cost += prod
		if cost >= bound {
			break
		}
		prefix |= 1 << uint(v)
	}
	return cost
}

func (e *Estimator) names(perm []int) []core.Var {
	out := make([]core.Var, len(perm))
	for i, v := range perm {
		out[i] = e.vars[v]
	}
	return out
}

// Cost estimates the number of binary searches a Tributary join performs
// under the given global variable order.
func (e *Estimator) Cost(order []core.Var) (float64, error) {
	if len(order) != len(e.vars) {
		return 0, fmt.Errorf("order: order %v does not cover the %d query variables", order, len(e.vars))
	}
	perm := make([]int, len(order))
	for i, v := range order {
		idx, ok := e.index[v]
		if !ok {
			return 0, fmt.Errorf("order: unknown variable %s", v)
		}
		perm[i] = idx
	}
	return e.cost(perm, math.Inf(1)), nil
}

// Best enumerates variable orders and returns the one with the lowest
// estimated cost. With k variables it walks all k! permutations when that
// is at most maxEnum; otherwise it combines a beam search (width 16) with
// maxEnum random permutations (seeded for reproducibility) and keeps the
// cheapest. Ties keep the order met first.
//
// The walk is one depth-first search carrying the running product and
// partial cost, and it skips a subtree whose partial cost already reaches
// the incumbent's: the cost is a sum of non-negative prefix products, so no
// completion could be strictly cheaper. The result equals pricing every
// permutation independently.
func (e *Estimator) Best(maxEnum int, seed int64) ([]core.Var, float64, error) {
	k := len(e.vars)
	var best []core.Var
	bestCost := math.Inf(1)
	if total := factorial(k); total > 0 && total <= maxEnum {
		perm := e.identity()
		var walk func(i int, prefix uint64, prod, cost float64)
		walk = func(i int, prefix uint64, prod, cost float64) {
			if i == k {
				bestCost, best = cost, e.names(perm)
				return
			}
			for j := i; j < k; j++ {
				perm[i], perm[j] = perm[j], perm[i]
				v := perm[i]
				p := prod * e.step(prefix, v)
				if c := cost + p; c < bestCost {
					walk(i+1, prefix|1<<uint(v), p, c)
				}
				perm[i], perm[j] = perm[j], perm[i]
			}
		}
		walk(0, 0, 1, 0)
		return best, bestCost, nil
	}
	consider := func(perm []int) {
		if c := e.cost(perm, bestCost); c < bestCost {
			bestCost, best = c, e.names(perm)
		}
	}
	if ord, _, err := e.bestBeam(16); err == nil {
		consider(ord)
	}
	rng := rand.New(rand.NewSource(seed))
	for n := 0; n < maxEnum; n++ {
		consider(e.randomPerm(rng))
	}
	return best, bestCost, nil
}

// RandomOrders returns n distinct-seeded random variable orders; Figure 12
// of the paper samples 20 of these per query.
func (e *Estimator) RandomOrders(n int, seed int64) [][]core.Var {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]core.Var, n)
	for i := range out {
		out[i] = e.names(e.randomPerm(rng))
	}
	return out
}

// identity returns the variables' indices in first-appearance order.
func (e *Estimator) identity() []int {
	perm := make([]int, len(e.vars))
	for i := range perm {
		perm[i] = i
	}
	return perm
}

func (e *Estimator) randomPerm(rng *rand.Rand) []int {
	perm := e.identity()
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

func factorial(k int) int {
	f := 1
	for i := 2; i <= k; i++ {
		f *= i
		if f > 1<<30 {
			return -1 // overflow sentinel: treat as "too many"
		}
	}
	return f
}
