package engine

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"parajoin/internal/rel"
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
