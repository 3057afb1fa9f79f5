package engine_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
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

// A batch is owned by whoever got it from next() or Recv, and an owner
// that has copied its rows out may hand it to the run's free list, from
// which routers and operators take the batches they fill. These tests pin
// that the rule never lets a recycled batch reach rows someone else still
// reads.

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

// TestRecycledBatchesLeaveInputsIntact runs the triangle under all six
// configurations, the 4-clique under HC_TJ and the two-hop path under
// Semijoin, at batch sizes 7 and 1 024, from four goroutines at once on
// one cluster, so every run fills, sends and recycles many batches while
// other runs do the same. A third pass runs the HC_TJ triangle and
// 4-clique at batch size 1 024 with spilling always and K=2, sealing every
// 64 rows: the Tributary output then comes from sealed segments and from
// the arena chunks of shards too small to seal (about 40 % of them), and
// runRoot's Buffer recycles the copies. Every answer must equal
// NaiveEvaluate's, and the base fragments must hash the same before and
// after. Run it under -race.
func TestRecycledBatchesLeaveInputsIntact(t *testing.T) {
	const workers, goroutines, runs = 4, 4, 20
	e := edges("E", 700, 60, 59)
	rels := map[string]*rel.Relation{"E": e, "E#2": e, "E#3": e, "E#4": e, "E#5": e, "E#6": e}
	type query struct {
		name   string
		rounds []engine.Round
		want   []byte
		hcTJ   bool
	}
	var queries []query
	p := &planner.Planner{
		Workers:   workers,
		Catalog:   stats.NewCatalog(e),
		Relations: map[string]*rel.Relation{"E": e},
		MaxOrders: 720,
	}
	for _, tc := range []struct {
		rule    string
		configs []planner.PlanConfig
	}{
		{"Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)", planner.Configs},
		{"Clique(x,y,z,w) :- E(x,y), E(y,z), E(z,w), E(w,x), E(x,z), E(y,w)", []planner.PlanConfig{planner.HCTJ}},
		{"Path(x,y,z) :- E(x,y), E(y,z)", []planner.PlanConfig{planner.SemiJoin}},
	} {
		q := core.MustParseRule(tc.rule, nil)
		want, err := ljoin.NaiveEvaluate(q, rels)
		if err != nil {
			t.Fatal(err)
		}
		if want.Cardinality() == 0 {
			t.Fatalf("%s: empty answer, the test would prove nothing", q.Name)
		}
		for _, cfg := range tc.configs {
			res, err := p.Plan(q, cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", q.Name, cfg, err)
			}
			queries = append(queries, query{q.Name + " " + cfg.String(), res.Rounds, canonical(want), cfg == planner.HCTJ})
		}
	}
	for _, ps := range []struct {
		batch  int
		spill  engine.SpillPolicy
		k      int
		hcOnly bool
	}{{7, engine.SpillDefault, 0, false}, {1024, engine.SpillDefault, 0, false}, {1024, engine.SpillAlways, 2, true}} {
		c := engine.NewCluster(workers)
		defer c.Close()
		c.BatchSize = ps.batch
		c.SpillSealTuples = 64
		c.Load(e)
		opts := engine.RunOpts{Spill: ps.spill, Parallelism: ps.k, SpillDir: t.TempDir()}
		name := fmt.Sprintf("batch %d, spill %v, K=%d", ps.batch, ps.spill, ps.k)
		before := fragmentHashes(c, "E")
		var wg sync.WaitGroup
		var spills atomic.Int64
		errs := make(chan string, goroutines*runs*len(queries))
		for range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range runs {
					for _, q := range queries {
						if ps.hcOnly && !q.hcTJ {
							continue
						}
						got, report, err := c.RunRoundsOpts(context.Background(), q.rounds, opts)
						if err != nil {
							errs <- fmt.Sprintf("%s, %s: %v", name, q.name, err)
							return
						}
						spills.Add(report.Spills)
						if !slices.Equal(canonical(got), q.want) {
							errs <- fmt.Sprintf("%s, %s: answer differs from NaiveEvaluate's", name, q.name)
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
			t.Fatalf("%s: base fragments changed: hashes %x, then %x", name, before, after)
		}
		if ps.spill == engine.SpillAlways && spills.Load() == 0 {
			t.Fatalf("%s: nothing spilled, the pass would prove nothing", name)
		}
	}
}

// TestConstantAtomsArityZero runs a query whose atoms hold only constants,
// so its Tributary join's output rows have arity 0, through every
// configuration the planner accepts for it, with spilling off and always,
// serially and at K=4. Each answer must equal NaiveEvaluate's.
func TestConstantAtomsArityZero(t *testing.T) {
	e := edges("E", 300, 30, 7)
	e.AppendRow(1, 2)
	e.AppendRow(2, 3)
	e.Dedup()
	q := core.MustQuery("Q", nil, []core.Atom{
		core.NewAtom("E", core.C(1), core.C(2)),
		core.NewAtom("E", core.C(2), core.C(3)),
	})
	want, err := ljoin.NaiveEvaluate(q, map[string]*rel.Relation{"E": e, "E#2": e})
	if err != nil {
		t.Fatal(err)
	}
	if want.Cardinality() == 0 || want.Arity() != 0 {
		t.Fatalf("naive answer %v: want rows of arity 0", want)
	}
	const workers = 4
	p := &planner.Planner{Workers: workers, Catalog: stats.NewCatalog(e), Relations: map[string]*rel.Relation{"E": e}}
	c := engine.NewCluster(workers)
	defer c.Close()
	c.BatchSize = 7
	c.Load(e)
	planned := 0
	for _, cfg := range append(slices.Clone(planner.Configs), planner.SemiJoin) {
		res, err := p.Plan(q, cfg)
		if err != nil {
			continue // a configuration that cannot plan a disconnected query
		}
		planned++
		for _, pol := range []engine.SpillPolicy{engine.SpillOff, engine.SpillAlways} {
			for _, k := range []int{1, 4} {
				got, _, err := c.RunRoundsOpts(context.Background(), res.Rounds,
					engine.RunOpts{Spill: pol, Parallelism: k, SpillDir: t.TempDir()})
				if err != nil {
					t.Fatalf("%v spill=%v K=%d: %v", cfg, pol, k, err)
				}
				if !slices.Equal(canonical(got), canonical(want)) {
					t.Fatalf("%v spill=%v K=%d: %d rows of arity %d, naive %d of arity 0",
						cfg, pol, k, got.Cardinality(), got.Arity(), want.Cardinality())
				}
			}
		}
	}
	if planned == 0 {
		t.Fatal("no configuration planned the query")
	}
}

// TestTransportKeepsCallerBatch sends one caller-held batch twice over a
// TCPTransport's remote route. The transport never recycles or rewrites
// a batch it encodes, so both copies arrive intact and the caller's batch,
// the spare capacity of its values included, is unchanged.
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
	spare := make([]int64, 16)
	for i := range spare {
		spare[i] = -1
	}
	batch := rel.BatchOf(2, 0, spare[:0])
	for i := range int64(5) {
		batch.Append(rel.Tuple{i, 10 * i})
	}
	held := slices.Clone(spare) // the values as the caller holds them, spare capacity included
	want := slices.Clone(batch.Vals)
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
	var got []rel.Batch
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
		if b.Len() != 5 || b.Arity != 2 || !slices.Equal(b.Vals, want) {
			t.Fatalf("copy %d = %d rows %v, want 5 rows %v", i, b.Len(), b.Vals, want)
		}
	}
	if batch.Len() != 5 || &batch.Vals[0] != &spare[0] || !slices.Equal(spare, held) {
		t.Fatalf("caller's batch = %d rows over %v, want 5 rows over %v", batch.Len(), spare, held)
	}
}

// TestScanBatchesNeverRecycled runs a hand-built Tributary whose R input is
// a Scan of a replicated relation, beside two HyperCube inputs. A scan's
// batches are copies of the shared base relation, so the Tributary input
// that recycles them never hands out the relation's storage: the relation
// is unchanged after the run and the answer is right.
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
