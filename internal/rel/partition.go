package rel

// Partitioning helpers. The engine stores every base relation horizontally
// partitioned across workers (the paper uses round-robin for the initial
// placement), and the regular shuffle re-partitions by a hash of the join
// columns.

import "slices"

// Hash64 is the seeded 64-bit mix used for every hash partition decision in
// parajoin. Different seeds give (empirically) independent hash functions,
// which is what the HyperCube shuffle needs: one independent function per
// join variable. The mixer is the splitmix64 finalizer, which has full
// avalanche, so consecutive integer keys (the common case for dictionary
// codes and generated vertex ids) spread uniformly.
func Hash64(seed uint64, v int64) uint64 {
	x := uint64(v) + 0x9e3779b97f4a7c15 + seed*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashTuple combines the values of the given columns into one hash, for
// multi-column regular shuffles.
func HashTuple(seed uint64, t Tuple, cols []int) uint64 {
	h := seed ^ 0x51afd7ed558ccd6d
	for _, c := range cols {
		h = Hash64(h, t[c])
	}
	return h
}

// HashPartition splits r into p fragments by hashing the given columns: a
// tuple t lands in fragment HashTuple(seed, t, cols) mod p. Fragment i keeps
// r's schema and is named "r.Name#i".
func (r *Relation) HashPartition(p int, cols []int, seed uint64) []*Relation {
	frags := emptyFragments(r, p)
	for _, t := range r.Tuples {
		i := int(HashTuple(seed, t, cols) % uint64(p))
		frags[i].Tuples = append(frags[i].Tuples, t)
	}
	return frags
}

// RoundRobinPartition splits r into p fragments by dealing tuples in turn.
// This is the initial data placement in all the paper's experiments: uniform
// by construction and oblivious to values.
func (r *Relation) RoundRobinPartition(p int) []*Relation {
	frags := emptyFragments(r, p)
	for i, t := range r.Tuples {
		frags[i%p].Tuples = append(frags[i%p].Tuples, t)
	}
	return frags
}

func emptyFragments(r *Relation, p int) []*Relation {
	if p <= 0 {
		panic("rel: partitioning into a non-positive number of fragments")
	}
	frags := make([]*Relation, p)
	for i := range frags {
		frags[i] = &Relation{Name: r.Name, Schema: r.Schema.Clone()}
	}
	return frags
}

// Concat merges fragments (all with identical arity) into one relation named
// name, skipping nil entries (a partial cluster's unhosted workers). It is
// the inverse of the partitioning helpers up to tuple order.
func Concat(name string, frags []*Relation) *Relation {
	out := &Relation{Name: name}
	parts := make([][]Tuple, 0, len(frags))
	for _, f := range frags {
		if f == nil {
			continue
		}
		if out.Schema == nil {
			out.Schema = f.Schema.Clone()
		}
		parts = append(parts, f.Tuples)
	}
	out.Tuples = slices.Concat(parts...) // one exact-size allocation
	return out
}
