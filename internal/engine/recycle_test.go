package engine_test

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"parajoin/internal/core"
	"parajoin/internal/engine"
	"parajoin/internal/hypercube"
	"parajoin/internal/ljoin"
	"parajoin/internal/planner"
	"parajoin/internal/rel"
	"parajoin/internal/shares"
	"parajoin/internal/stats"
)

// The HyperCube router takes its batches from a process-wide pool and the
// Tributary input loop returns them once their rows are copied out. These
// tests pin who may do what with a batch: the recycling never reaches rows
// someone else still reads.

func edges(name string, n, nodes int, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := rel.New(name, "src", "dst")
	for range n {
		r.AppendRow(rng.Int63n(int64(nodes)), rng.Int63n(int64(nodes)))
	}
	return r.Dedup()
}

// canonical is a relation's answer as bytes: its schema, then its rows
// sorted, so two plans' answers compare byte for byte whatever order
// their workers emitted them in.
func canonical(r *rel.Relation) []byte {
	rows := slices.Clone(r.Tuples)
	slices.SortFunc(rows, rel.Tuple.Compare)
	var out []byte
	for _, c := range r.Schema {
		out = append(append(out, c...), 0)
	}
	for _, t := range rows {
		out = binary.AppendUvarint(out, uint64(len(t)))
		for _, v := range t {
			out = binary.AppendVarint(out, v)
		}
	}
	return out
}

// fragmentHashes hashes every worker's fragment of each named relation:
// row count, then every row's length and values.
func fragmentHashes(c *engine.Cluster, names ...string) []uint64 {
	var out []uint64
	for _, name := range names {
		for w := range c.Workers() {
			h := fnv.New64a()
			f := c.Fragment(w, name)
			h.Write(binary.AppendUvarint(nil, uint64(len(f.Tuples))))
			for _, t := range f.Tuples {
				buf := binary.AppendUvarint(nil, uint64(len(t)))
				for _, v := range t {
					buf = binary.AppendVarint(buf, v)
				}
				h.Write(buf)
			}
			out = append(out, h.Sum64())
		}
	}
	return out
}

// TestRecycledBatchesLeaveInputsIntact runs triangle and 4-clique HC_TJ
// from four goroutines at once on one cluster, with 32-row batches so each
// run fills, sends and recycles many, and pooled batches pass between
// concurrent queries and workers. Every answer must be
// byte-identical to the RS_HJ answer, which takes no pooled batch, and the
// base fragments must hash the same before and after. Run it under -race.
func TestRecycledBatchesLeaveInputsIntact(t *testing.T) {
	const workers, goroutines, runs = 4, 4, 20
	e := edges("E", 700, 60, 59)
	c := engine.NewCluster(workers)
	defer c.Close()
	c.BatchSize = 32
	c.Load(e)
	p := &planner.Planner{
		Workers:   workers,
		Catalog:   stats.NewCatalog(e),
		Relations: map[string]*rel.Relation{"E": e},
		MaxOrders: 720,
	}
	type query struct {
		name   string
		rounds []engine.Round
		want   []byte
	}
	var queries []query
	for _, rule := range []string{
		"Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)",
		"Clique(x,y,z,w) :- E(x,y), E(y,z), E(z,w), E(w,x), E(x,z), E(y,w)",
	} {
		q := core.MustParseRule(rule, nil)
		rs, err := p.Plan(q, planner.RSHJ)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := c.RunRounds(context.Background(), rs.Rounds)
		if err != nil {
			t.Fatalf("%s RS_HJ: %v", q.Name, err)
		}
		if want.Cardinality() == 0 {
			t.Fatalf("%s: empty answer, the test would prove nothing", q.Name)
		}
		hc, err := p.Plan(q, planner.HCTJ)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, query{q.Name, hc.Rounds, canonical(want)})
	}
	before := fragmentHashes(c, "E")

	var wg sync.WaitGroup
	errs := make(chan string, goroutines*runs*len(queries))
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range runs {
				for _, q := range queries {
					got, _, err := c.RunRounds(context.Background(), q.rounds)
					if err != nil {
						errs <- q.name + ": " + err.Error()
						return
					}
					if !slices.Equal(canonical(got), q.want) {
						errs <- q.name + ": HC_TJ answer differs from RS_HJ's"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if after := fragmentHashes(c, "E"); !slices.Equal(before, after) {
		t.Fatalf("base fragments changed: hashes %x, then %x", before, after)
	}
}

// TestTransportKeepsCallerBatch sends one caller-held batch twice over a
// TCPTransport's remote route. The transport never recycles or rewrites
// a batch, so both copies arrive intact and the caller's slice, row
// headers included, is unchanged.
func TestTransportKeepsCallerBatch(t *testing.T) {
	trA, err := engine.NewTCPTransport([]string{"127.0.0.1:0", "127.0.0.1:0"}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	defer trA.Close()
	trB, err := engine.NewTCPTransport(trA.Addrs(), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	defer trB.Close()
	trA.SetPeerAddrs(trB.Addrs())

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	batch := make([]rel.Tuple, 0, 8)
	for i := range int64(5) {
		batch = append(batch, rel.Tuple{i, 10 * i})
	}
	held := slices.Clone(batch) // the headers as the caller holds them
	want := make([]rel.Tuple, len(batch))
	for i, r := range batch {
		want[i] = r.Clone()
	}
	for range 2 {
		if err := trA.Send(ctx, 0, 0, 1, batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := trA.CloseSend(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := trB.CloseSend(ctx, 0, 1); err != nil {
		t.Fatal(err)
	}
	var got [][]rel.Tuple
	for {
		b, ok, err := trB.Recv(ctx, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, b)
	}
	if len(got) != 2 {
		t.Fatalf("received %d batches, want 2", len(got))
	}
	for i, b := range got {
		if !slices.EqualFunc(b, want, rel.Tuple.Equal) {
			t.Fatalf("copy %d = %v, want %v", i, b, want)
		}
	}
	if len(batch) != len(held) || cap(batch) != 8 || !slices.EqualFunc(batch, want, rel.Tuple.Equal) {
		t.Fatalf("caller's batch = %v (cap %d), want %v", batch, cap(batch), want)
	}
	for i := range batch {
		if &batch[i][0] != &held[i][0] {
			t.Fatalf("row %d of the caller's batch was replaced", i)
		}
	}
}

// TestScanBatchesNeverRecycled runs a hand-built Tributary whose R input is
// a Scan of a replicated relation, beside two HyperCube inputs. A scan's
// batches are views of the shared base relation, so they must never enter
// the pool: the relation is unchanged after the run and the answer is
// right.
func TestScanBatchesNeverRecycled(t *testing.T) {
	const workers = 3
	q := core.MustQuery("Triangle", nil, []core.Atom{
		core.NewAtom("R", core.V("x"), core.V("y")),
		core.NewAtom("S", core.V("y"), core.V("z")),
		core.NewAtom("T", core.V("z"), core.V("x")),
	})
	r, s, u := edges("R", 500, 40, 60), edges("S", 500, 40, 61), edges("T", 500, 40, 62)
	want, err := ljoin.NaiveEvaluate(q, map[string]*rel.Relation{"R": r, "S": s, "T": u})
	if err != nil {
		t.Fatal(err)
	}
	c := engine.NewCluster(workers)
	defer c.Close()
	c.LoadReplicated(r)
	c.Load(s)
	c.Load(u)
	before := fragmentHashes(c, "R")

	cfg := shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{1, 3, 3}}
	grid := hypercube.NewGrid(cfg)
	cellMap := make([]int, grid.Cells())
	for i := range cellMap {
		cellMap[i] = i % workers
	}
	plan := &engine.Plan{Root: engine.Tributary{Query: q, Order: cfg.Vars, Inputs: map[string]engine.Node{
		"R": engine.Scan{Table: "R"},
		"S": engine.Recv{Exchange: 0, Schema: rel.Schema{"src", "dst"}},
		"T": engine.Recv{Exchange: 1, Schema: rel.Schema{"src", "dst"}},
	}}}
	for i, atom := range q.Atoms[1:] {
		plan.Exchanges = append(plan.Exchanges, engine.ExchangeSpec{
			ID: i, Name: "HCS " + atom.String(), Input: engine.Scan{Table: atom.Relation},
			Kind: engine.RouteHyperCube, Grid: grid, Atom: atom, CellMap: cellMap,
		})
	}
	got, _, err := c.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if after := fragmentHashes(c, "R"); !slices.Equal(before, after) {
		t.Fatal("the scanned base relation changed")
	}
	// A worker may find a triangle through more than one of its cells.
	got.Dedup()
	if !got.Equal(want) {
		t.Fatalf("%d tuples, naive %d", got.Cardinality(), want.Cardinality())
	}
}
