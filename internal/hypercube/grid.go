// Package hypercube implements the HyperCube shuffle's routing: organizing
// cells into a k-dimensional grid (one dimension per join variable), hashing
// each tuple's bound variables to fix coordinates, and replicating along the
// unbound dimensions (Section 2.1 of the paper).
package hypercube

import (
	"fmt"
	"hash/fnv"

	"parajoin/internal/core"
	"parajoin/internal/rel"
	"parajoin/internal/shares"
)

// Grid is an instantiated HyperCube: dimension sizes plus one independent
// hash function per dimension. The hash seed is derived from the variable
// name, so every atom containing variable x hashes x identically — the
// property that makes matching tuples meet in the same cell.
type Grid struct {
	Vars    []core.Var
	Dims    []int
	seeds   []uint64
	strides []int
	cells   int
}

// NewGrid builds the grid for a share configuration.
func NewGrid(cfg shares.Config) *Grid {
	g := &Grid{
		Vars:    cfg.Vars,
		Dims:    cfg.Dims,
		seeds:   make([]uint64, len(cfg.Vars)),
		strides: make([]int, len(cfg.Dims)),
	}
	for i, v := range cfg.Vars {
		h := fnv.New64a()
		h.Write([]byte(v))
		g.seeds[i] = h.Sum64()
	}
	stride := 1
	for i := len(g.Dims) - 1; i >= 0; i-- {
		g.strides[i] = stride
		stride *= g.Dims[i]
	}
	g.cells = stride
	if g.cells == 0 {
		g.cells = 1 // zero dimensions: a single cell
	}
	return g
}

// Cells returns the number of cells in the grid.
func (g *Grid) Cells() int { return g.cells }

// Coord hashes value v into dimension i's buckets.
func (g *Grid) Coord(i int, v int64) int {
	return int(rel.Hash64(g.seeds[i], v) % uint64(g.Dims[i]))
}

// CellID converts grid coordinates to a cell id (row-major).
func (g *Grid) CellID(coords []int) int {
	id := 0
	for i, c := range coords {
		id += c * g.strides[i]
	}
	return id
}

// CoordsOf is the inverse of CellID.
func (g *Grid) CoordsOf(cell int) []int {
	coords := make([]int, len(g.Dims))
	for i := range g.Dims {
		coords[i] = cell / g.strides[i] % g.Dims[i]
	}
	return coords
}

// Router routes the tuples of one atom: it knows which grid dimensions the
// atom's variables bind (and at which tuple position), and enumerates the
// free dimensions for replication. A Router owns the odometer it
// enumerates with, so it is not safe for concurrent use: each goroutine
// builds its own with RouterFor. Its WorkerRoutes table is the form that
// routing goroutines share.
type Router struct {
	grid *Grid
	// boundPos[i] is the tuple position that fixes dimension i, or -1 when
	// the atom does not contain the dimension's variable.
	boundPos []int
	freeDims []int
	idx      []int // odometer over freeDims, reused by every Destinations call
	// Replication is the number of cells each tuple is sent to: the product
	// of the free dimension sizes.
	Replication int
}

// RouterFor builds the router for an atom whose tuples have the atom's term
// layout. When a variable occurs at several positions of the atom (R(x,x)),
// the first position is used for routing; the local join still verifies the
// equality.
func (g *Grid) RouterFor(atom core.Atom) *Router {
	r := &Router{grid: g, boundPos: make([]int, len(g.Dims)), Replication: 1}
	for i, v := range g.Vars {
		r.boundPos[i] = -1
		if ps := atom.VarPositions(v); len(ps) > 0 {
			r.boundPos[i] = ps[0]
		} else {
			r.freeDims = append(r.freeDims, i)
			r.Replication *= g.Dims[i]
		}
	}
	r.idx = make([]int, len(r.freeDims))
	return r
}

// Destinations appends to dst the ids of every cell that must receive t,
// and returns the extended slice. The bound dimensions are fixed by hashing
// t's values; the free dimensions are enumerated (the replication the
// HyperCube shuffle pays to avoid shuffling intermediate results).
func (r *Router) Destinations(t rel.Tuple, dst []int) []int {
	g := r.grid
	base := 0
	for i, pos := range r.boundPos {
		if pos >= 0 {
			base += g.Coord(i, t[pos]) * g.strides[i]
		}
	}
	return r.cellsFrom(base, dst)
}

// cellsFrom appends the cells that share base's bound coordinates — base
// itself, replicated along every free dimension — in odometer order.
func (r *Router) cellsFrom(base int, dst []int) []int {
	g := r.grid
	if len(r.freeDims) == 0 {
		return append(dst, base)
	}
	// Odometer over the free dimensions; it ends back at all zeros.
	idx := r.idx
	for {
		cell := base
		for j, d := range r.freeDims {
			cell += idx[j] * g.strides[d]
		}
		dst = append(dst, cell)
		j := len(idx) - 1
		for j >= 0 {
			idx[j]++
			if idx[j] < g.Dims[r.freeDims[j]] {
				break
			}
			idx[j] = 0
			j--
		}
		if j < 0 {
			return dst
		}
	}
}

// WorkerRoutes is a router's destinations mapped through a cell→worker
// table and deduplicated per worker, precomputed: one entry per
// combination of the bound dimensions' coordinates, holding the distinct
// workers of that combination's cells in the order Destinations first
// reaches them. Routing a tuple is then one hash per bound dimension and a
// table lookup. A WorkerRoutes is read-only once built, so every producer
// of an exchange can share one.
type WorkerRoutes struct {
	grid *Grid
	// bound lists the bound dimensions, pos their tuple positions, and
	// stride their strides in the table's row-major index.
	bound, pos, stride []int
	// The workers of entry i are workers[offs[i]:offs[i+1]].
	offs    []int
	workers []int
}

// WorkerRoutes builds r's worker table. cellWorker maps each of the grid's
// cells to a worker in [0, workers).
func (r *Router) WorkerRoutes(cellWorker []int, workers int) *WorkerRoutes {
	g := r.grid
	wr := &WorkerRoutes{grid: g}
	entries := 1
	for i, pos := range r.boundPos {
		if pos >= 0 {
			wr.bound = append(wr.bound, i)
			wr.pos = append(wr.pos, pos)
			wr.stride = append(wr.stride, entries)
			entries *= g.Dims[i]
		}
	}
	wr.offs = make([]int, 1, entries+1)
	seen := make([]bool, workers)
	var cells []int
	for e := 0; e < entries; e++ {
		base := 0
		for j, d := range wr.bound {
			base += e / wr.stride[j] % g.Dims[d] * g.strides[d]
		}
		cells = r.cellsFrom(base, cells[:0])
		first := len(wr.workers)
		for _, c := range cells {
			if w := cellWorker[c]; !seen[w] {
				seen[w] = true
				wr.workers = append(wr.workers, w)
			}
		}
		for _, w := range wr.workers[first:] {
			seen[w] = false
		}
		wr.offs = append(wr.offs, len(wr.workers))
	}
	return wr
}

// Of returns the workers that must receive t, each once, in the order
// Destinations' cells first reach them. The slice is the table's own and
// must not be modified.
func (wr *WorkerRoutes) Of(t rel.Tuple) []int {
	e := 0
	for j, d := range wr.bound {
		e += wr.grid.Coord(d, t[wr.pos[j]]) * wr.stride[j]
	}
	lo, hi := wr.offs[e], wr.offs[e+1]
	return wr.workers[lo:hi:hi]
}

// SimulateLoads routes every tuple of every atom's relation through the
// grid and the allocation's cell→worker map, and returns the number of
// tuples received per worker. Cells of the same worker are deduplicated —
// a tuple addressed to two cells on one worker is transmitted once — which
// is the accounting the share-optimizer evaluation (Figure 11) uses.
// relations maps atom aliases to their (whole, unpartitioned) relations.
func SimulateLoads(q *core.Query, relations map[string]*rel.Relation, alloc *shares.CellAllocation) ([]int64, error) {
	g := NewGrid(alloc.Config)
	if len(alloc.Assign) != g.Cells() {
		return nil, fmt.Errorf("hypercube: allocation covers %d cells, grid has %d", len(alloc.Assign), g.Cells())
	}
	loads := make([]int64, alloc.Workers)
	for _, atom := range q.Atoms {
		r := relations[atom.Alias]
		if r == nil {
			return nil, fmt.Errorf("hypercube: no relation bound to atom %q", atom.Alias)
		}
		routes := g.RouterFor(atom).WorkerRoutes(alloc.Assign, alloc.Workers)
		for _, t := range r.Tuples {
			for _, w := range routes.Of(t) {
				loads[w]++
			}
		}
	}
	return loads, nil
}
