package engine

import (
	"context"
	"testing"
	"time"

	"parajoin/internal/core"
	"parajoin/internal/ljoin"
	"parajoin/internal/rel"
)

func TestTCPShufflePreservesBag(t *testing.T) {
	a, b := twoProcessCluster(t)
	r := randGraph("R", 500, 60, 41)
	a.Load(r)
	b.Load(r)
	got, reps := runSplit(t, a, b, shuffleGather("R", []string{"dst"}))
	if !got.Equal(r) {
		t.Fatalf("TCP shuffle changed the bag: %d vs %d", got.Cardinality(), r.Cardinality())
	}
	report := MergeDistributedReports(reps[:])
	if report.TotalTuplesShuffled() != int64(r.Cardinality()) {
		t.Fatalf("metered %d tuples, want %d", report.TotalTuplesShuffled(), r.Cardinality())
	}
}

func TestTCPJoinPlanMatchesNaive(t *testing.T) {
	a, b := twoProcessCluster(t)
	r := randGraph("R", 300, 40, 42)
	s := randGraph("S", 300, 40, 43)
	for _, c := range []*Cluster{a, b} {
		c.Load(r)
		c.Load(s)
	}
	got, _ := runSplit(t, a, b, rsJoinPlan())
	q := core.MustQuery("Path", nil, []core.Atom{
		core.NewAtom("R", core.V("x"), core.V("y")),
		core.NewAtom("S", core.V("y"), core.V("z")),
	})
	want, _ := ljoin.NaiveEvaluate(q, map[string]*rel.Relation{"R": r, "S": s})
	got.Dedup()
	if !got.Equal(want) {
		t.Fatalf("TCP join: %d tuples, naive %d", got.Cardinality(), want.Cardinality())
	}
}

// TestTCPByteTotalsAgree checks the wire meter's parity invariant per
// direction: once both halves finish, every frame one sent has been
// decoded by the other (close frames are the last on each connection, and
// a run only finishes after all of them are consumed), so A's sent bytes
// equal B's received bytes exactly — gob type descriptors and framing
// included — and the other way round.
func TestTCPByteTotalsAgree(t *testing.T) {
	a, b := twoProcessCluster(t)
	r := randGraph("R", 500, 60, 44)
	a.Load(r)
	b.Load(r)
	_, reps := runSplit(t, a, b, shuffleGather("R", []string{"dst"}))
	sa, sb := a.Transport().TransportStats(), b.Transport().TransportStats()
	if sa.BytesSent != sb.BytesReceived || sb.BytesSent != sa.BytesReceived {
		t.Fatalf("byte totals disagree: A sent %d, B received %d; B sent %d, A received %d",
			sa.BytesSent, sb.BytesReceived, sb.BytesSent, sa.BytesReceived)
	}
	if got, want := sa.BatchesReceived+sb.BatchesReceived, sa.BatchesSent+sb.BatchesSent; got != want {
		t.Fatalf("batch totals disagree: received=%d sent=%d", got, want)
	}
	for i, st := range []TransportStats{sa, sb} {
		if st.QueueDepth != 0 {
			t.Fatalf("half %d: queue depth %d after the run drained", i, st.QueueDepth)
		}
		// The report's sent delta covers the transport's only run. (Its
		// received delta may miss frames the other half sent before this
		// half's run began.)
		if rep := reps[i]; rep.BytesSent != st.BytesSent {
			t.Fatalf("half %d: report sent %d bytes, transport total %d", i, rep.BytesSent, st.BytesSent)
		}
	}
}

// TestTCPHostedRunOpensNoConnection pins the hosted path: a transport that
// listens for every worker delivers all batches by reference, so a run
// answers correctly without dialing anyone and meters no bytes.
func TestTCPHostedRunOpensNoConnection(t *testing.T) {
	tr, err := NewTCPTransport([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"}, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClusterWithTransport(3, tr)
	defer c.Close()
	r := randGraph("R", 500, 60, 47)
	c.Load(r)
	got, report, err := c.Run(context.Background(), shuffleGather("R", []string{"dst"}))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) {
		t.Fatalf("hosted shuffle changed the bag: %d vs %d", got.Cardinality(), r.Cardinality())
	}
	tr.mu.Lock()
	conns, peers := len(tr.conns), len(tr.peers)
	tr.mu.Unlock()
	if conns != 0 || peers != 0 {
		t.Fatalf("hosted run opened %d connections to %d peers", conns, peers)
	}
	if report.BytesSent != 0 || report.BatchesSent == 0 {
		t.Fatalf("hosted run metered %d bytes in %d batches, want 0 bytes in >0 batches",
			report.BytesSent, report.BatchesSent)
	}
}

// TestEpochSingleUse checks that a released epoch is closed for good on
// both delivery paths: Send to a hosted worker, Send to a worker hosted
// elsewhere, CloseSend and Recv all fail at once with a retryable
// ErrTransport instead of re-creating the epoch's queues (which a hosted
// Recv would then wait on until its context ended, and a remote peer
// would drop as stragglers).
func TestEpochSingleUse(t *testing.T) {
	a, _ := twoProcessCluster(t)
	tr := a.Transport()
	const epoch = 7
	ex := int(epoch) << 20
	tr.ReleaseEpoch(epoch)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	batch := []rel.Tuple{{1, 2}}
	_, _, recvErr := tr.Recv(ctx, ex, 0)
	for name, err := range map[string]error{
		"send hosted": tr.Send(ctx, ex, 0, 1, batch),
		"send remote": tr.Send(ctx, ex, 0, 2, batch),
		"close send":  tr.CloseSend(ctx, ex, 0),
		"recv":        recvErr,
	} {
		if !Retryable(err) || ctx.Err() != nil {
			t.Errorf("%s on a released epoch: err = %v (context %v), want a retryable ErrTransport within 100 ms", name, err, ctx.Err())
		}
	}
	if n := tr.(*TCPTransport).QueueCount(); n != 0 {
		t.Fatalf("%d inbox queues re-created for the released epoch", n)
	}
}

// TestTCPTwoProcessByteParity checks the same invariant across endpoints:
// what both processes sent equals what both received.
func TestTCPTwoProcessByteParity(t *testing.T) {
	a, b := twoProcessCluster(t)
	r := randGraph("R", 800, 90, 45)
	a.Load(r)
	b.Load(r)

	plan := shuffleGather("R", []string{"dst"})
	errs := make(chan error, 2)
	for _, c := range []*Cluster{a, b} {
		go func(c *Cluster) {
			_, _, err := c.RunFragments(context.Background(), plan)
			errs <- err
		}(c)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	sa := a.Transport().TransportStats()
	sb := b.Transport().TransportStats()
	if sa.BytesSent+sb.BytesSent == 0 {
		t.Fatal("no bytes metered across either endpoint")
	}
	if got, want := sa.BytesReceived+sb.BytesReceived, sa.BytesSent+sb.BytesSent; got != want {
		t.Fatalf("cross-endpoint byte totals disagree: received=%d sent=%d (A %+v, B %+v)", got, want, sa, sb)
	}
	if got, want := sa.BatchesReceived+sb.BatchesReceived, sa.BatchesSent+sb.BatchesSent; got != want {
		t.Fatalf("cross-endpoint batch totals disagree: received=%d sent=%d", got, want)
	}
}

func TestTCPRecvUnhostedWorker(t *testing.T) {
	tr, err := NewTCPTransport([]string{"127.0.0.1:0", "127.0.0.1:0"}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, _, err := tr.Recv(context.Background(), 0, 1); err == nil {
		t.Fatal("receiving for an unhosted worker should fail")
	}
}

func TestTCPAddrsResolved(t *testing.T) {
	tr, err := NewTCPTransport([]string{"127.0.0.1:0"}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.Addrs()[0] == "127.0.0.1:0" {
		t.Fatal("listen address was not resolved")
	}
}
