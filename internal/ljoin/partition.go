package ljoin

import "parajoin/internal/rel"

// Range partitioning for intra-worker parallelism: a prepared Tributary
// join splits into disjoint sub-joins over contiguous ranges of the first
// global variable's domain. Because the serial join enumerates level-0
// values in strictly increasing order and every deeper level descends from
// one level-0 binding, running the sub-joins independently and
// concatenating their outputs in range order reproduces the serial output
// bit for bit — the guarantee the engine's join (and, through it,
// retry-based fault tolerance) relies on.

// Shards splits p into up to k sub-joins over disjoint, contiguous,
// half-open ranges of the first variable's domain, covering it completely
// and in increasing order. Cut values are the index-proportional quantiles
// of the largest participating sorted array (the balanced binary-search
// partitioner: the array is sorted, so position i·n/k holds the i/k
// quantile, and the trie's own lower-bound searches align each cut to a
// value-run boundary at run time). Each shard holds fresh iterator clones
// over the shared backing arrays, so shards are safe to Run concurrently.
//
// Shards returns nil — meaning "declined": run p whole — when k ≤ 1, when
// the join is degenerate (empty guard failed, no variables, unbound first
// variable, empty pivot), or when the pivot has fewer distinct values than
// needed for at least two non-empty ranges.
//
// The parent p stays runnable and is not aliased by the shards' mutable
// state; its Stats do not include work done by shards. Every shard shares
// p's stop check, so install it (SetStopCheck) before splitting.
func (p *Prepared) Shards(k int) []*Prepared {
	if k <= 1 || p.emptyGuardFailed || len(p.order) == 0 {
		return nil
	}
	if len(p.byLevel[0]) == 0 {
		return nil // Run reports the unbound-variable error; keep that serial.
	}
	var pivot *arrayTrie
	for _, ti := range p.byLevel[0] {
		if t := p.tries[ti]; pivot == nil || len(t.tuples) > len(pivot.tuples) {
			pivot = t
		}
	}
	if len(pivot.tuples) == 0 {
		return nil
	}
	cuts := cutValues(pivot.tuples, k)
	if len(cuts) == 0 {
		return nil
	}

	shards := make([]*Prepared, 0, len(cuts)+1)
	for i := 0; i <= len(cuts); i++ {
		s := &Prepared{
			q:        p.q,
			order:    p.order,
			byLevel:  p.byLevel,
			filters:  p.filters,
			filterIx: p.filterIx,
			headIdx:  p.headIdx,
			stop:     p.stop,
		}
		if i > 0 {
			s.lo, s.hasLo = cuts[i-1], true
		}
		if i < len(cuts) {
			s.hi, s.hasHi = cuts[i], true
		}
		s.tries = make([]*arrayTrie, len(p.tries))
		for j, t := range p.tries {
			s.tries[j] = t.clone()
		}
		shards = append(shards, s)
	}
	return shards
}

// Range reports the shard's half-open level-0 value range. A missing bound
// (ok false) extends to the end of the domain on that side.
func (p *Prepared) Range() (lo int64, hasLo bool, hi int64, hasHi bool) {
	return p.lo, p.hasLo, p.hi, p.hasHi
}

// cutValues picks up to k-1 strictly increasing boundary values at the
// index-proportional quantiles of a sorted array's first column. Duplicate
// quantiles collapse (a value run longer than n/k yields fewer cuts), so
// every resulting half-open range is non-empty on the pivot.
func cutValues(tuples []rel.Tuple, k int) []int64 {
	n := len(tuples)
	if n == 0 {
		return nil
	}
	var cuts []int64
	first := tuples[0][0]
	for i := 1; i < k; i++ {
		v := tuples[i*n/k][0]
		if v <= first || (len(cuts) > 0 && v <= cuts[len(cuts)-1]) {
			continue
		}
		cuts = append(cuts, v)
	}
	return cuts
}
