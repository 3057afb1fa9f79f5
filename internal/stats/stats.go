// Package stats computes the relation statistics that drive parajoin's two
// optimizers: cardinalities |R| feed the share optimizer (the HyperCube
// configuration of Section 4 of the paper), and distinct/prefix-distinct
// counts V(R, x) and V(R, prefix) feed the Tributary-join variable-order
// cost model (Section 5).
package stats

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"parajoin/internal/metrics"
	"parajoin/internal/rel"
)

// scans counts passes over a relation's tuples made to compute statistics:
// one per Collect and one per prefix count that was not already memoized.
// At a fixed data epoch it stops moving once the queries' prefix sets have
// been seen, which is what makes planning cost independent of relation size.
var scans = metrics.Default.Counter("parajoin_stats_relation_scans_total",
	"Relation scans made to compute planning statistics (Collect calls plus prefix-count memo misses).")

// RelationScans returns the process-wide count of statistics scans.
func RelationScans() int64 { return scans.Value() }

// countDistinct returns the number of distinct projections of tuples onto
// cols (V(R, cols) of the paper's cost model). When the columns' value
// ranges fit 64 bits together — always, for one or two columns of node ids
// or dictionary codes — each projection packs into one uint64 key
// (rel.KeyPacker): a key space no larger than the key array would be is
// marked off in a bitmap, a larger one is sorted and its runs counted.
// Otherwise row indices are sorted with a column-wise comparison.
// Whatever it allocates is garbage when the call returns.
func countDistinct(tuples []rel.Tuple, cols []int) int {
	n := len(tuples)
	if n == 0 {
		return 0
	}
	if len(cols) == 0 {
		// The empty prefix has exactly one value (the empty tuple).
		return 1
	}
	p, packs := rel.FitKeyPacker(tuples, cols)
	if width := p.Width(); packs && width < 63 && 1<<uint(width) <= 64*n {
		seen := make([]uint64, 1<<uint(width)/64+1)
		distinct := 0
		for _, t := range tuples {
			k := p.Pack(t)
			if bit := uint64(1) << (k % 64); seen[k/64]&bit == 0 {
				seen[k/64] |= bit
				distinct++
			}
		}
		return distinct
	}
	distinct := 1
	if packs {
		keys := make([]uint64, n)
		for j, t := range tuples {
			keys[j] = p.Pack(t)
		}
		slices.Sort(keys)
		for j := 1; j < n; j++ {
			if keys[j] != keys[j-1] {
				distinct++
			}
		}
		return distinct
	}
	byCols := func(a, b int) int {
		for _, c := range cols {
			if d := cmp.Compare(tuples[a][c], tuples[b][c]); d != 0 {
				return d
			}
		}
		return 0
	}
	idx := make([]int, n)
	for j := range idx {
		idx[j] = j
	}
	slices.SortFunc(idx, byCols)
	for j := 1; j < n; j++ {
		if byCols(idx[j], idx[j-1]) != 0 {
			distinct++
		}
	}
	return distinct
}

// RelationStats holds the statistics of one relation that the optimizers
// ask for: cardinality and per-column distinct counts, collected eagerly,
// and prefix-distinct counts V(R, cols), memoized per column set on first
// request. A relation's statistics are a pure function of its tuples, so
// one RelationStats is shared by every plan made while the relation is
// loaded. The memo holds integers only: no sorted or packed copy of the
// relation outlives the call that computed a count.
type RelationStats struct {
	Name        string
	Cardinality int
	// ColumnDistinct[i] is the number of distinct values in column i.
	ColumnDistinct []int

	rel *rel.Relation

	mu sync.Mutex
	// prefix maps a bitmask of two or more base columns to V(R, set); V
	// does not depend on the order of the columns.
	prefix map[uint64]int
}

// Collect scans r once and returns its statistics.
func Collect(r *rel.Relation) *RelationStats {
	scans.Inc()
	s := &RelationStats{
		Name:           r.Name,
		Cardinality:    len(r.Tuples),
		ColumnDistinct: make([]int, r.Arity()),
		rel:            r,
	}
	for c := range s.ColumnDistinct {
		s.ColumnDistinct[c] = countDistinct(r.Tuples, []int{c})
	}
	return s
}

// Precomputed builds RelationStats from persisted numbers, without the
// relation data — the form a partition catalog's manifest can reconstruct.
// Cardinality and per-column distinct counts are exact; Prefix falls back
// to an independence estimate, so only consumers that never ask for prefix
// counts (the share optimizer) should plan against precomputed statistics.
func Precomputed(name string, cardinality int, columnDistinct []int) *RelationStats {
	return &RelationStats{
		Name:           name,
		Cardinality:    cardinality,
		ColumnDistinct: append([]int(nil), columnDistinct...),
	}
}

// Prefix returns V(R, cols): the number of distinct projections onto cols,
// in any order. It is safe for concurrent use; each column set is counted at
// most once. Precomputed statistics carry no data, so for them the count is
// estimated as min(|R|, Π V(R, col)) — exact for single columns, an
// independence upper bound beyond that.
func (s *RelationStats) Prefix(cols []int) int {
	if s.rel == nil {
		est := 1
		for _, c := range cols {
			d := 1
			if c >= 0 && c < len(s.ColumnDistinct) {
				d = s.ColumnDistinct[c]
			}
			if d <= 0 {
				d = 1
			}
			if est > s.Cardinality/d { // est*d would overflow past |R| anyway
				return s.Cardinality
			}
			est *= d
		}
		if est > s.Cardinality {
			return s.Cardinality
		}
		return est
	}
	var mask uint64
	for _, c := range cols {
		if c >= 64 {
			// Too wide to key; such relations pay for every count.
			scans.Inc()
			return countDistinct(s.rel.Tuples, cols)
		}
		mask |= 1 << uint(c)
	}
	switch bits.OnesCount64(mask) {
	case 0:
		return min(s.Cardinality, 1)
	case 1:
		return s.ColumnDistinct[bits.TrailingZeros64(mask)]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.prefix[mask]; ok {
		return v
	}
	set := make([]int, 0, len(cols))
	for m := mask; m != 0; m &= m - 1 {
		set = append(set, bits.TrailingZeros64(m))
	}
	scans.Inc()
	v := countDistinct(s.rel.Tuples, set)
	if s.prefix == nil {
		s.prefix = map[uint64]int{}
	}
	s.prefix[mask] = v
	return v
}

// Catalog maps relation names to their statistics. A database keeps one per
// data epoch and hands it to the share and variable-order optimizers.
type Catalog struct {
	byName map[string]*RelationStats
}

// NewCatalog collects statistics for every relation given.
func NewCatalog(relations ...*rel.Relation) *Catalog {
	c := &Catalog{byName: make(map[string]*RelationStats, len(relations))}
	for _, r := range relations {
		c.byName[r.Name] = Collect(r)
	}
	return c
}

// Add collects and registers statistics for r, replacing any previous entry
// under the same name.
func (c *Catalog) Add(r *rel.Relation) {
	c.byName[r.Name] = Collect(r)
}

// AddStats registers already-computed statistics (see Precomputed),
// replacing any previous entry under the same name.
func (c *Catalog) AddStats(s *RelationStats) {
	c.byName[s.Name] = s
}

// With returns a catalog that has s in place of any entry under s.Name and
// shares every other entry with c, which is left untouched — the form a
// database uses to publish a new immutable catalog when one relation loads.
func (c *Catalog) With(s *RelationStats) *Catalog {
	next := &Catalog{byName: make(map[string]*RelationStats, len(c.byName)+1)}
	for name, e := range c.byName {
		next.byName[name] = e
	}
	next.byName[s.Name] = s
	return next
}

// For returns the entry that was collected from exactly r — the one whose
// prefix memo describes r's tuples — or nil. A nil catalog has no entries.
func (c *Catalog) For(r *rel.Relation) *RelationStats {
	if c == nil {
		return nil
	}
	if s := c.byName[r.Name]; s != nil && s.rel == r {
		return s
	}
	return nil
}

// Get returns the statistics for the named relation, or nil when unknown.
func (c *Catalog) Get(name string) *RelationStats {
	return c.byName[name]
}

// Cardinality returns |R| for the named relation, or 0 when unknown.
func (c *Catalog) Cardinality(name string) int {
	if s := c.byName[name]; s != nil {
		return s.Cardinality
	}
	return 0
}
