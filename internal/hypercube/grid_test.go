package hypercube

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"parajoin/internal/core"
	"parajoin/internal/rel"
	"parajoin/internal/shares"
)

func triangleQuery() *core.Query {
	return core.MustQuery("Triangle", nil, []core.Atom{
		core.NewAtom("R", core.V("x"), core.V("y")),
		core.NewAtom("S", core.V("y"), core.V("z")),
		core.NewAtom("T", core.V("z"), core.V("x")),
	})
}

func grid444() *Grid {
	return NewGrid(shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{4, 4, 4}})
}

func TestCellIDRoundTrip(t *testing.T) {
	g := NewGrid(shares.Config{Vars: []core.Var{"a", "b", "c"}, Dims: []int{2, 3, 5}})
	if g.Cells() != 30 {
		t.Fatalf("Cells = %d", g.Cells())
	}
	for cell := 0; cell < g.Cells(); cell++ {
		if got := g.CellID(g.CoordsOf(cell)); got != cell {
			t.Fatalf("roundtrip(%d) = %d", cell, got)
		}
	}
}

func TestRouterReplication(t *testing.T) {
	g := grid444()
	q := triangleQuery()
	for _, atom := range q.Atoms {
		r := g.RouterFor(atom)
		if r.Replication != 4 {
			t.Errorf("atom %s replication = %d, want 4", atom, r.Replication)
		}
		dst := r.Destinations(rel.Tuple{10, 20}, nil)
		if len(dst) != 4 {
			t.Errorf("atom %s destinations = %d, want 4", atom, len(dst))
		}
		seen := map[int]bool{}
		for _, c := range dst {
			if c < 0 || c >= g.Cells() {
				t.Fatalf("cell %d out of range", c)
			}
			if seen[c] {
				t.Fatalf("duplicate destination %d", c)
			}
			seen[c] = true
		}
	}
}

func TestRouterFullyBoundSingleDestination(t *testing.T) {
	g := grid444()
	atom := core.NewAtom("U", core.V("x"), core.V("y"), core.V("z"))
	r := g.RouterFor(atom)
	if r.Replication != 1 {
		t.Fatalf("replication = %d, want 1", r.Replication)
	}
	if dst := r.Destinations(rel.Tuple{1, 2, 3}, nil); len(dst) != 1 {
		t.Fatalf("destinations = %v", dst)
	}
}

func TestRouterUnboundAtomBroadcasts(t *testing.T) {
	g := grid444()
	atom := core.NewAtom("K", core.V("w")) // no join variable bound
	r := g.RouterFor(atom)
	if r.Replication != 64 {
		t.Fatalf("replication = %d, want 64", r.Replication)
	}
	if dst := r.Destinations(rel.Tuple{9}, nil); len(dst) != 64 {
		t.Fatalf("destinations = %d, want 64", len(dst))
	}
}

// The defining property of the HyperCube shuffle: any two tuples that agree
// on their shared variables meet in at least one common cell.
func TestJoiningTuplesMeet(t *testing.T) {
	g := grid444()
	q := triangleQuery()
	rR := g.RouterFor(q.Atoms[0]) // R(x,y)
	rS := g.RouterFor(q.Atoms[1]) // S(y,z)
	rT := g.RouterFor(q.Atoms[2]) // T(z,x)

	f := func(x, y, z int16) bool {
		dR := rR.Destinations(rel.Tuple{int64(x), int64(y)}, nil)
		dS := rS.Destinations(rel.Tuple{int64(y), int64(z)}, nil)
		dT := rT.Destinations(rel.Tuple{int64(z), int64(x)}, nil)
		common := intersect(intersect(dR, dS), dT)
		return len(common) == 1 // exactly one cell sees the whole triangle
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func intersect(a, b []int) []int {
	in := make(map[int]bool, len(a))
	for _, v := range a {
		in[v] = true
	}
	var out []int
	for _, v := range b {
		if in[v] {
			out = append(out, v)
		}
	}
	return out
}

// Tuples that agree on a variable get the same coordinate in that
// dimension regardless of which atom routed them.
func TestSharedVariableSameCoordinate(t *testing.T) {
	g := grid444()
	f := func(y int32) bool {
		// R(x,y) fixes dim 1 by t[1]; S(y,z) fixes dim 1 by t[0].
		cR := g.Coord(1, int64(y))
		cS := g.Coord(1, int64(y))
		return cR == cS
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateLoadsTriangle(t *testing.T) {
	q := triangleQuery()
	rng := rand.New(rand.NewSource(5))
	mk := func(name string) *rel.Relation {
		r := rel.New(name, "a", "b")
		for i := 0; i < 4000; i++ {
			r.AppendRow(rng.Int63n(1000), rng.Int63n(1000))
		}
		return r
	}
	relations := map[string]*rel.Relation{"R": mk("R"), "S": mk("S"), "T": mk("T")}

	cfg := shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{4, 4, 4}}
	alloc := shares.OneCellPerWorker(cfg, 64)
	loads, err := SimulateLoads(q, relations, alloc)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	var max int64
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	// Every tuple replicated 4×: total shuffled = 3 * 4000 * 4.
	if total != 48000 {
		t.Fatalf("total shuffled = %d, want 48000", total)
	}
	avg := float64(total) / 64
	if float64(max) > 2*avg {
		t.Fatalf("uniform data should have low skew: max %d vs avg %.1f", max, avg)
	}
}

func TestSimulateLoadsDedupsPerWorker(t *testing.T) {
	// All 4 cells of a 2×2 grid on ONE worker: each tuple must be counted
	// once even though it is addressed to 2 cells.
	q := core.MustQuery("Q", nil, []core.Atom{
		core.NewAtom("R", core.V("x")),
		core.NewAtom("S", core.V("x"), core.V("y")),
	})
	r := rel.New("R", "a")
	r.AppendRow(1)
	s := rel.New("S", "a", "b")
	s.AppendRow(1, 2)
	cfg := shares.Config{Vars: []core.Var{"x", "y"}, Dims: []int{2, 2}}
	alloc := &shares.CellAllocation{Config: cfg, Workers: 1, Assign: []int{0, 0, 0, 0}}
	loads, err := SimulateLoads(q, map[string]*rel.Relation{"R": r, "S": s}, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if loads[0] != 2 {
		t.Fatalf("worker 0 load = %d, want 2 (one per tuple, dedup across cells)", loads[0])
	}
}

func TestSimulateLoadsMissingRelation(t *testing.T) {
	q := triangleQuery()
	cfg := shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{1, 1, 1}}
	alloc := shares.OneCellPerWorker(cfg, 1)
	if _, err := SimulateLoads(q, map[string]*rel.Relation{}, alloc); err == nil {
		t.Fatal("missing relation should error")
	}
}

func TestGridZeroDims(t *testing.T) {
	g := NewGrid(shares.Config{})
	if g.Cells() != 1 {
		t.Fatalf("zero-dimension grid has %d cells, want 1", g.Cells())
	}
	r := g.RouterFor(core.NewAtom("R", core.V("x")))
	if dst := r.Destinations(rel.Tuple{5}, nil); len(dst) != 1 || dst[0] != 0 {
		t.Fatalf("destinations = %v, want [0]", dst)
	}
}

// TestDestinationsAllocatesNothing pins that the free-dimension odometer is
// the Router's own scratch: routing a replicated tuple into a slice with
// room allocates nothing.
func TestDestinationsAllocatesNothing(t *testing.T) {
	g := NewGrid(shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{2, 3, 4}})
	r := g.RouterFor(core.NewAtom("R", core.V("x"), core.V("y"))) // z is free
	if r.Replication != 4 {
		t.Fatalf("replication = %d, want 4", r.Replication)
	}
	cells := make([]int, 0, r.Replication)
	tup := rel.Tuple{7, 11}
	allocs := testing.AllocsPerRun(100, func() {
		cells = r.Destinations(tup, cells[:0])
	})
	if allocs != 0 {
		t.Fatalf("Destinations allocates %.1f times per call, want 0", allocs)
	}
	if len(cells) != r.Replication {
		t.Fatalf("destinations = %v, want %d cells", cells, r.Replication)
	}
}

// workerImage is the reference for WorkerRoutes.Of: t's destination cells
// mapped through cellWorker, each worker kept at its first occurrence.
func workerImage(r *Router, cellWorker []int, t rel.Tuple) []int {
	var out []int
	for _, c := range r.Destinations(t, nil) {
		if w := cellWorker[c]; !slices.Contains(out, w) {
			out = append(out, w)
		}
	}
	return out
}

// TestWorkerRoutesMatchDestinations checks the precomputed table against
// routing one tuple at a time, over random grids of up to four dimensions
// of sizes 1 to 4, atoms that bind none, some or all of them (a repeated
// variable, a constant and a variable outside the grid among them), and
// cell maps that put several cells on one worker.
func TestWorkerRoutesMatchDestinations(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	names := []core.Var{"a", "b", "c", "d"}
	for trial := range 300 {
		dims := make([]int, rng.Intn(5))
		for i := range dims {
			dims[i] = 1 + rng.Intn(4)
		}
		g := NewGrid(shares.Config{Vars: names[:len(dims)], Dims: dims})
		// Terms drawn from the grid's variables (repeats allowed), a
		// variable the grid does not know and a constant.
		terms := make([]core.Term, 1+rng.Intn(4))
		for i := range terms {
			switch k := rng.Intn(len(dims) + 2); {
			case k < len(dims):
				terms[i] = core.V(string(names[k]))
			case k == len(dims):
				terms[i] = core.V("w")
			default:
				terms[i] = core.C(7)
			}
		}
		atom := core.NewAtom("R", terms...)
		workers := 1 + rng.Intn(g.Cells())
		cellWorker := make([]int, g.Cells())
		for c := range cellWorker {
			cellWorker[c] = rng.Intn(workers)
		}
		r := g.RouterFor(atom)
		routes := r.WorkerRoutes(cellWorker, workers)
		for range 50 {
			tup := make(rel.Tuple, len(terms))
			for i := range tup {
				tup[i] = rng.Int63n(100) - 50
			}
			if got, want := routes.Of(tup), workerImage(r, cellWorker, tup); !slices.Equal(got, want) {
				t.Fatalf("trial %d: grid %v, atom %s, cells→workers %v: Of(%v) = %v, want %v",
					trial, dims, atom, cellWorker, tup, got, want)
			}
		}
	}
}

// TestWorkerRoutesOfAllocatesNothing pins that routing a tuple through
// the table is a lookup: no allocation, and the slice it returns cannot
// grow into its neighbour's entry.
func TestWorkerRoutesOfAllocatesNothing(t *testing.T) {
	g := grid444()
	r := g.RouterFor(core.NewAtom("R", core.V("x"), core.V("y"))) // z is free
	cellWorker := make([]int, g.Cells())
	for c := range cellWorker {
		cellWorker[c] = c % 16
	}
	routes := r.WorkerRoutes(cellWorker, 16)
	tup := rel.Tuple{7, 11}
	var ws []int
	allocs := testing.AllocsPerRun(100, func() {
		ws = routes.Of(tup)
	})
	if allocs != 0 {
		t.Fatalf("Of allocates %.1f times per call, want 0", allocs)
	}
	if len(ws) == 0 || cap(ws) != len(ws) {
		t.Fatalf("Of = %v with capacity %d, want a non-empty slice clamped to its length", ws, cap(ws))
	}
}
