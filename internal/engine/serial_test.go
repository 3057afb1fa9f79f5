package engine

import (
	"bytes"
	"context"
	"testing"

	"parajoin/internal/core"
	"parajoin/internal/hypercube"
	"parajoin/internal/ljoin"
	"parajoin/internal/rel"
	"parajoin/internal/shares"
)

// testRounds builds a two-round plan exercising every node kind and every
// routing kind the planner can emit.
func testRounds(t *testing.T) []Round {
	t.Helper()
	q := core.MustQuery("Tri", nil, []core.Atom{
		core.NewAtom("R", core.V("x"), core.V("y")),
		core.NewAtom("S", core.V("y"), core.V("z")),
		core.NewAtom("T", core.V("z"), core.V("x")),
	})
	grid := hypercube.NewGrid(shares.Config{
		Vars: []core.Var{"x", "y", "z"}, Dims: []int{2, 2, 1},
	})
	cellMap := make([]int, grid.Cells())
	for i := range cellMap {
		cellMap[i] = i % 4
	}
	round1 := Round{
		Name: "reduce",
		Plan: &Plan{
			Exchanges: []ExchangeSpec{
				{ID: 0, Name: "shuffle-R", Kind: RouteHash, HashCols: []string{"x"}, Seed: 7,
					Input: Select{Input: Scan{Table: "R"}, Filters: []ColFilter{
						{Left: "x", Op: core.Lt, Const: 100},
						{Left: "x", Op: core.Ne, RightCol: "y"},
					}}},
				{ID: 1, Name: "bcast-S", Kind: RouteBroadcast,
					Input: Project{Input: Scan{Table: "S"}, Cols: []string{"y", "z"}, As: []string{"a", "b"}, Dedup: true}},
			},
			Root: SemiJoin{
				Left:     Recv{Exchange: 0, Schema: rel.Schema{"x", "y"}},
				Right:    Recv{Exchange: 1, Schema: rel.Schema{"a", "b"}},
				LeftCols: []string{"y"}, RightCols: []string{"a"},
			},
		},
		StoreAs: "Rred",
	}
	round2 := Round{
		Name: "join",
		Plan: &Plan{
			Exchanges: []ExchangeSpec{
				{ID: 0, Name: "hc-R", Kind: RouteHyperCube, Grid: grid,
					Atom: q.Atoms[0], CellMap: cellMap, Input: Scan{Table: "Rred"}},
				{ID: 1, Name: "hc-S", Kind: RouteHyperCube, Grid: grid,
					Atom: q.Atoms[1], CellMap: cellMap, Input: Scan{Table: "S"}},
				{ID: 2, Name: "hc-T", Kind: RouteHyperCube, Grid: grid,
					Atom: q.Atoms[2], CellMap: cellMap, Input: Scan{Table: "T"}},
				{ID: 3, Name: "hash-R", Kind: RouteHash, HashCols: []string{"x"}, Seed: 3,
					Input: Scan{Table: "R"}},
			},
			Root: Count{Input: HashJoin{
				Left: Tributary{
					Query: q,
					Inputs: map[string]Node{
						"R": Recv{Exchange: 0, Schema: rel.Schema{"x", "y"}},
						"S": Recv{Exchange: 1, Schema: rel.Schema{"y", "z"}},
						"T": Recv{Exchange: 2, Schema: rel.Schema{"z", "x"}},
					},
					Order: []core.Var{"x", "y", "z"},
					Mode:  ljoin.SeekGalloping,
				},
				Right:    Recv{Exchange: 3, Schema: rel.Schema{"x", "y2"}},
				LeftCols: []string{"x"}, RightCols: []string{"x"},
			}},
		},
	}
	return []Round{round1, round2}
}

func TestRoundsSerializationRoundTrip(t *testing.T) {
	rounds := testRounds(t)
	blob, err := EncodeRounds(rounds)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := DecodeRounds(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	blob2, err := EncodeRounds(decoded)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatalf("encoding is not a fixed point:\n%s\nvs\n%s", blob, blob2)
	}
}

// TestDecodedPlanExecutesIdentically runs the same single-round plan from
// its original and decoded forms and compares results — the property
// fragment dispatch relies on.
func TestDecodedPlanExecutesIdentically(t *testing.T) {
	q := core.MustQuery("Tri", nil, []core.Atom{
		core.NewAtom("R", core.V("x"), core.V("y")),
		core.NewAtom("S", core.V("y"), core.V("z")),
		core.NewAtom("T", core.V("z"), core.V("x")),
	})
	grid := hypercube.NewGrid(shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{2, 2, 1}})
	cellMap := make([]int, grid.Cells())
	for i := range cellMap {
		cellMap[i] = i % 4
	}
	rounds := []Round{{
		Plan: &Plan{
			Exchanges: []ExchangeSpec{
				{ID: 0, Kind: RouteHyperCube, Grid: grid, Atom: q.Atoms[0], CellMap: cellMap, Input: Scan{Table: "R"}},
				{ID: 1, Kind: RouteHyperCube, Grid: grid, Atom: q.Atoms[1], CellMap: cellMap, Input: Scan{Table: "S"}},
				{ID: 2, Kind: RouteHyperCube, Grid: grid, Atom: q.Atoms[2], CellMap: cellMap, Input: Scan{Table: "T"}},
			},
			Root: Tributary{
				Query: q,
				Inputs: map[string]Node{
					"R": Recv{Exchange: 0, Schema: rel.Schema{"x", "y"}},
					"S": Recv{Exchange: 1, Schema: rel.Schema{"y", "z"}},
					"T": Recv{Exchange: 2, Schema: rel.Schema{"z", "x"}},
				},
				Order: []core.Var{"x", "y", "z"},
			},
		},
	}}
	blob, err := EncodeRounds(rounds)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := DecodeRounds(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	edges := [][]int64{{1, 2}, {2, 3}, {3, 1}, {2, 4}, {4, 3}, {1, 1}}
	load := func(c *Cluster) {
		for _, name := range []string{"R", "S", "T"} {
			r := rel.New(name, "a", "b")
			for _, e := range edges {
				r.AppendRow(e[0], e[1])
			}
			c.Load(r)
		}
	}
	run := func(rs []Round) *rel.Relation {
		c := NewCluster(4)
		defer c.Close()
		load(c)
		out, _, err := c.RunRounds(context.Background(), rs)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return out
	}
	a, b := run(rounds), run(decoded)
	if !a.Equal(b) {
		t.Fatalf("decoded plan produced a different result: %d vs %d tuples",
			a.Cardinality(), b.Cardinality())
	}
	if a.Cardinality() == 0 {
		t.Fatal("expected a nonempty triangle result")
	}
}

func TestRunOptsEpochPinning(t *testing.T) {
	c := NewCluster(2)
	defer c.Close()
	r := rel.New("R", "a", "b")
	r.AppendRow(1, 2)
	r.AppendRow(3, 4)
	c.Load(r)
	rounds := []Round{{Plan: &Plan{
		Exchanges: []ExchangeSpec{{ID: 0, Kind: RouteBroadcast, Input: Scan{Table: "R"}}},
		Root:      Recv{Exchange: 0, Schema: rel.Schema{"a", "b"}},
	}}}
	for _, epoch := range []int64{41, 1, 41} { // reuse must be safe on MemTransport
		out, _, err := c.RunRoundsOpts(context.Background(), rounds, RunOpts{Epoch: epoch})
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if out.Cardinality() != 4 { // 2 tuples broadcast to 2 workers
			t.Fatalf("epoch %d: got %d tuples, want 4", epoch, out.Cardinality())
		}
	}
}

func FuzzDecodeRounds(f *testing.F) {
	rounds := []Round{{
		Plan: &Plan{
			Exchanges: []ExchangeSpec{{ID: 0, Kind: RouteHash, HashCols: []string{"a"}, Input: Scan{Table: "R"}}},
			Root:      Recv{Exchange: 0, Schema: rel.Schema{"a", "b"}},
		},
	}}
	blob, err := EncodeRounds(rounds)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"root":{"kind":"scan","table":"R"}}]`))
	f.Add([]byte(`[{"root":{"kind":"recv","exchange":9}}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := DecodeRounds(data)
		if err != nil {
			return
		}
		// Whatever decodes must validate and re-encode cleanly.
		for i, r := range decoded {
			if r.Plan == nil {
				t.Fatalf("round %d decoded with nil plan", i)
			}
			if err := r.Plan.Validate(); err != nil {
				t.Fatalf("decoded plan fails validation: %v", err)
			}
		}
		if _, err := EncodeRounds(decoded); err != nil {
			t.Fatalf("re-encode of valid decode failed: %v", err)
		}
	})
}
