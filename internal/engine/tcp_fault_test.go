package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"parajoin/internal/rel"
)

// waitUntil polls cond until it holds or the deadline expires.
func waitUntil(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("timed out waiting for " + msg)
}

// TestChaosTCPKilledConnectionRecovers severs every TCP connection between
// two runs of a two-process shuffle. The second run must heal the links
// transparently — same result, at least one observed reconnect — because
// peers cache connections across runs and the first write on a dead one
// triggers the redial/resend path.
func TestChaosTCPKilledConnectionRecovers(t *testing.T) {
	a, b := twoProcessCluster(t)
	r := randGraph("R", 600, 70, 301)
	a.Load(r)
	b.Load(r)
	plan := shuffleGather("R", []string{"dst"})

	runBoth := func() *rel.Relation {
		t.Helper()
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
		return rel.Concat("R", append(append([]*rel.Relation(nil), fragsA...), fragsB...))
	}

	base := runBoth()
	if !base.Equal(r) {
		t.Fatalf("baseline run lost tuples: %d vs %d", base.Cardinality(), r.Cardinality())
	}

	trA := a.Transport().(*TCPTransport)
	trB := b.Transport().(*TCPTransport)
	killed := trA.KillConnections() + trB.KillConnections()
	if killed == 0 {
		t.Fatal("no connections to kill — the first run left no links open")
	}

	again := runBoth()
	if !again.Equal(base) {
		t.Fatalf("post-kill run diverged: %d tuples vs baseline %d", again.Cardinality(), base.Cardinality())
	}
	var reconnects int64
	for _, tr := range []*TCPTransport{trA, trB} {
		for _, ph := range tr.PeerHealth() {
			reconnects += ph.Reconnects
		}
	}
	if reconnects == 0 {
		t.Fatal("second run succeeded without any reconnect — the kill did nothing")
	}
}

// TestChaosTCPRedialBudgetExhausted pins what happens when a peer is gone
// for good: the first run warms the links, then the peer's transport
// closes (listeners included) and this side's cached connections are
// severed. The next run must burn through the fixed redial budget — every
// redial refused — and fail with a retryable ErrTransport well inside the
// deadline, rather than hang or succeed silently.
func TestChaosTCPRedialBudgetExhausted(t *testing.T) {
	a, b := twoProcessCluster(t)
	r := randGraph("R", 600, 70, 302)
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
			t.Fatalf("warm-up run: %v", err)
		}
	}

	b.Close()
	if a.Transport().(*TCPTransport).KillConnections() == 0 {
		t.Fatal("no connections to kill — the warm-up left no links open")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	start := time.Now()
	_, _, err := a.RunFragments(ctx, plan)
	elapsed := time.Since(start)
	if ctx.Err() != nil {
		t.Fatal("run hit the deadline — it hung instead of exhausting the redial budget")
	}
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("run against a closed peer returned %v, want ErrTransport", err)
	}
	if !Retryable(err) {
		t.Errorf("exhausted-budget error %v must classify as retryable for the serving layer", err)
	}
	// The first write plus four refused redials.
	if !strings.Contains(err.Error(), "after 5 attempts") {
		t.Errorf("error %q does not report the full redial budget of 4", err)
	}
	// Each backoff is at least half its nominal delay, so burning the whole
	// budget takes at least half their sum.
	var minBackoff time.Duration
	for i := 0; i < tcpMaxRedials; i++ {
		minBackoff += tcpRedialBackoff << i / 2
	}
	if elapsed < minBackoff {
		t.Errorf("failed after %v, before the redial budget's minimum backoff %v", elapsed, minBackoff)
	}
}

// TestChaosTCPResendNoDuplicates drives the transport directly: a kill
// between two sends forces a reconnect, and whatever the resend path
// replays must be deduplicated by the receiver — the drained inbox holds
// each tuple exactly once.
func TestChaosTCPResendNoDuplicates(t *testing.T) {
	trA, err := NewTCPTransport([]string{"127.0.0.1:0", "127.0.0.1:0"}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	defer trA.Close()
	trB, err := NewTCPTransport(trA.Addrs(), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	defer trB.Close()
	trA.SetPeerAddrs(trB.Addrs())

	ctx := context.Background()
	if err := trA.Send(ctx, 0, 0, 1, []rel.Tuple{{1, 1}}); err != nil {
		t.Fatalf("send before kill: %v", err)
	}
	// Make sure the first frame landed so the kill cleanly separates the
	// two sends (the ack may or may not have made it back — both paths are
	// valid; an unacked frame is resent and must then be deduplicated).
	waitUntil(t, func() bool { return trB.QueueCount() >= 1 }, "first frame delivery")

	trA.KillConnections()
	trB.KillConnections()

	if err := trA.Send(ctx, 0, 0, 1, []rel.Tuple{{2, 2}}); err != nil {
		t.Fatalf("send after kill: %v", err)
	}
	if err := trA.CloseSend(ctx, 0, 0); err != nil {
		t.Fatalf("close send A: %v", err)
	}
	if err := trB.CloseSend(ctx, 0, 1); err != nil {
		t.Fatalf("close send B: %v", err)
	}

	var got []rel.Tuple
	for {
		b, ok, err := trB.Recv(ctx, 0, 1)
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if !ok {
			break
		}
		got = append(got, b...)
	}
	if len(got) != 2 {
		t.Fatalf("drained %d tuples, want exactly 2 (resends must dedup): %v", len(got), got)
	}
	seen := map[int64]bool{}
	for _, tu := range got {
		if seen[tu[0]] {
			t.Fatalf("tuple %v delivered twice", tu)
		}
		seen[tu[0]] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("missing tuples: got %v", got)
	}
}

// TestTCPCloseDuringDialDoesNotLeak regression-tests the close-vs-dial race:
// Close snapshots the registered connections, so a dial that completes after
// the snapshot but before registration used to leave its socket open forever.
// The fix has redialLocked notice the closed transport and shut the fresh
// connection down. Observable from the peer: its accepted connection must
// reach EOF and deregister.
func TestTCPCloseDuringDialDoesNotLeak(t *testing.T) {
	trA, err := NewTCPTransport([]string{"127.0.0.1:0", "127.0.0.1:0"}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	trB, err := NewTCPTransport(trA.Addrs(), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	defer trB.Close()
	trA.SetPeerAddrs(trB.Addrs())

	dialDone := make(chan struct{})
	release := make(chan struct{})
	tcpDialHook = func() {
		close(dialDone)
		<-release
	}
	defer func() { tcpDialHook = nil }()

	sendErr := make(chan error, 1)
	go func() {
		sendErr <- trA.Send(context.Background(), 0, 0, 1, []rel.Tuple{{1}})
	}()
	<-dialDone // the socket to B exists but is not yet registered

	if err := trA.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	close(release)

	if err := <-sendErr; err == nil {
		t.Fatal("send on a closed transport succeeded")
	}
	// B accepted the in-flight connection; if A leaked it the read loop
	// would hold it open forever.
	waitUntil(t, func() bool {
		trB.mu.Lock()
		n := len(trB.conns)
		trB.mu.Unlock()
		return n == 0
	}, "peer to drop the leaked connection")
}
