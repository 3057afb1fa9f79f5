package engine

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"parajoin/internal/core"
	"parajoin/internal/rel"
	"parajoin/internal/shares"
)

// twoProcessCluster simulates a two-process deployment inside one test:
// two TCP transports, each hosting half of a 4-worker cluster, connected
// over loopback. Both "processes" must run the same plans.
func twoProcessCluster(tb testing.TB) (a, b *Cluster) {
	tb.Helper()
	// Reserve ports by binding both transports against the same address
	// list. First bind A's listeners, learn the real ports, then B's.
	trA, err := NewTCPTransport([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"}, []int{0, 1})
	if err != nil {
		tb.Fatal(err)
	}
	addrs := trA.Addrs() // workers 0,1 resolved; 2,3 still :0
	trB, err := NewTCPTransport(addrs, []int{2, 3})
	if err != nil {
		tb.Fatal(err)
	}
	// B resolved workers 2 and 3; A must learn them.
	final := trB.Addrs()
	trA.SetPeerAddrs(final)

	a = NewPartialCluster(4, []int{0, 1}, trA)
	b = NewPartialCluster(4, []int{2, 3}, trB)
	tb.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// runSplit runs plan on both halves of a split cluster at once and returns
// the union of their result fragments and each half's report. Each half
// must put bytes on the wire: every caller's plan shuffles across halves.
func runSplit(tb testing.TB, a, b *Cluster, plan *Plan) (*rel.Relation, [2]*Report) {
	tb.Helper()
	var frags [2][]*rel.Relation
	var reps [2]*Report
	var errs [2]error
	var wg sync.WaitGroup
	for i, c := range []*Cluster{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			frags[i], reps[i], errs[i] = c.RunFragments(context.Background(), plan)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		tb.Fatal(err)
	}
	for i, r := range reps {
		if r.BytesSent == 0 {
			tb.Fatalf("half %d sent no bytes over the wire", i)
		}
	}
	return rel.Concat("result", append(frags[0], frags[1]...)), reps
}

func TestPartialClusterShuffle(t *testing.T) {
	a, b := twoProcessCluster(t)
	r := randGraph("R", 800, 90, 120)
	// Both processes load the full relation; round-robin placement is
	// deterministic, so their views agree.
	a.Load(r)
	b.Load(r)

	plan := shuffleGather("R", []string{"dst"})
	var wg sync.WaitGroup
	var fragsA, fragsB []*rel.Relation
	var errA, errB error
	wg.Add(2)
	go func() {
		defer wg.Done()
		fragsA, _, errA = a.RunFragments(context.Background(), plan)
	}()
	go func() {
		defer wg.Done()
		fragsB, _, errB = b.RunFragments(context.Background(), plan)
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("errA=%v errB=%v", errA, errB)
	}
	union := rel.Concat("R", append(append([]*rel.Relation(nil), fragsA...), fragsB...))
	if !union.Equal(r) {
		t.Fatalf("two-process shuffle produced %d tuples, want %d", union.Cardinality(), r.Cardinality())
	}
	// Each process only produced fragments for its hosted workers.
	if fragsA[2] != nil || fragsA[3] != nil || fragsB[0] != nil || fragsB[1] != nil {
		t.Fatal("processes produced fragments for unhosted workers")
	}
}

func TestPartialClusterJoin(t *testing.T) {
	a, b := twoProcessCluster(t)
	r := randGraph("R", 500, 60, 121)
	s := randGraph("S", 500, 60, 122)
	for _, c := range []*Cluster{a, b} {
		c.Load(r)
		c.Load(s)
	}
	plan := rsJoinPlan()
	var wg sync.WaitGroup
	var fragsA, fragsB []*rel.Relation
	var repA, repB *Report
	var errA, errB error
	wg.Add(2)
	go func() {
		defer wg.Done()
		fragsA, repA, errA = a.RunFragments(context.Background(), plan)
	}()
	go func() {
		defer wg.Done()
		fragsB, repB, errB = b.RunFragments(context.Background(), plan)
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("errA=%v errB=%v", errA, errB)
	}

	// Oracle: single-process cluster.
	single := NewCluster(4)
	defer single.Close()
	single.Load(r)
	single.Load(s)
	want, wantRep, err := single.Run(context.Background(), rsJoinPlan())
	if err != nil {
		t.Fatal(err)
	}
	got := rel.Concat("J", append(append([]*rel.Relation(nil), fragsA...), fragsB...))
	if !got.Equal(want) {
		t.Fatalf("two-process join: %d tuples, single-process %d", got.Cardinality(), want.Cardinality())
	}

	// Each process hosts two workers; merging their reports must give the
	// single-process report's per-worker vectors and the traffic and skews
	// derived from them.
	merged := MergeDistributedReports([]*Report{repA, repB})
	if len(merged.Exchanges) != len(wantRep.Exchanges) {
		t.Fatalf("merged %d exchange rows, single-process %d", len(merged.Exchanges), len(wantRep.Exchanges))
	}
	for i, w := range wantRep.Exchanges {
		g := merged.Exchanges[i]
		if !slices.Equal(g.Sent, w.Sent) || !slices.Equal(g.Received, w.Received) {
			t.Errorf("exchange %d: sent %v received %v, single-process %v %v", w.ID, g.Sent, g.Received, w.Sent, w.Received)
		}
		if g.TuplesSent() != w.TuplesSent() || g.ProducerSkew() != w.ProducerSkew() || g.ConsumerSkew() != w.ConsumerSkew() {
			t.Errorf("exchange %d: sent=%d producer-skew=%.3f consumer-skew=%.3f, single-process %d %.3f %.3f", w.ID,
				g.TuplesSent(), g.ProducerSkew(), g.ConsumerSkew(), w.TuplesSent(), w.ProducerSkew(), w.ConsumerSkew())
		}
	}
	for name, v := range map[string][2][]int64{
		"Processed": {merged.Processed, wantRep.Processed},
		"Sorted":    {merged.Sorted, wantRep.Sorted},
		"Seeks":     {merged.Seeks, wantRep.Seeks},
	} {
		if !slices.Equal(v[0], v[1]) {
			t.Errorf("%s: merged %v, single-process %v", name, v[0], v[1])
		}
	}
}

// TestSplitHyperCubeBytesRepeat runs the HyperCube + Tributary triangle
// eight times on a split cluster: every cross-process batch is a scan's
// rows routed in scan order, so each run sends exactly the same bytes, and
// the two halves receive exactly the bytes and batches they sent, frames
// that reach a half before its own run starts included.
// (A hash join's output follows the arrival order of its inputs, so an
// exchange fed by one carries the same rows in different batches from run
// to run, and its encoded bytes vary by a fraction of a percent. And each
// frame's JSON header carries the exchange's wire id, which holds the
// run's epoch, so from epoch 10 on every frame is one byte longer: eight
// runs stay below it.)
func TestSplitHyperCubeBytesRepeat(t *testing.T) {
	a, b := twoProcessCluster(t)
	for _, r := range []*rel.Relation{randGraph("R", 1500, 150, 61), randGraph("S", 1500, 150, 62), randGraph("T", 1500, 150, 63)} {
		a.Load(r)
		b.Load(r)
	}
	cfg := shares.Config{Vars: []core.Var{"x", "y", "z"}, Dims: []int{2, 2, 1}}
	plan := hcTrianglePlan(triangleQuery(), cfg, 4)
	var first int64
	for run := range 8 {
		_, reps := runSplit(t, a, b, plan)
		sent := reps[0].BytesSent + reps[1].BytesSent
		received := reps[0].BytesReceived + reps[1].BytesReceived
		if run == 0 {
			first = sent
		} else if sent != first {
			t.Fatalf("run %d sent %d bytes, run 0 %d", run, sent, first)
		}
		if received != sent {
			t.Fatalf("run %d received %d bytes (%d + %d), sent %d", run, received, reps[0].BytesReceived, reps[1].BytesReceived, sent)
		}
		if b := reps[0].BatchesReceived + reps[1].BatchesReceived; b != reps[0].BatchesSent+reps[1].BatchesSent {
			t.Fatalf("run %d received %d batches, sent %d", run, b, reps[0].BatchesSent+reps[1].BatchesSent)
		}
	}
}
