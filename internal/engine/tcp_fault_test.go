package engine

import (
	"context"
	"errors"
	"strings"
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

// connCount reports how many live connections, dialed and accepted, the
// transport holds.
func connCount(tr *TCPTransport) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.conns)
}

// TestChaosTCPKilledConnectionRecovers severs every TCP connection between
// two runs of a two-process shuffle. Once both transports have dropped the
// dead connections, the next run dials afresh and must equal the baseline
// with no error: a connection lost while idle costs no run.
func TestChaosTCPKilledConnectionRecovers(t *testing.T) {
	a, b := twoProcessCluster(t)
	r := randGraph("R", 600, 70, 301)
	a.Load(r)
	b.Load(r)
	plan := shuffleGather("R", []string{"dst"})

	base, _ := runSplit(t, a, b, plan)
	if !base.Equal(r) {
		t.Fatalf("baseline run lost tuples: %d vs %d", base.Cardinality(), r.Cardinality())
	}

	trA := a.Transport().(*TCPTransport)
	trB := b.Transport().(*TCPTransport)
	if trA.KillConnections()+trB.KillConnections() == 0 {
		t.Fatal("no connections to kill — the first run left no links open")
	}
	waitUntil(t, func() bool { return connCount(trA)+connCount(trB) == 0 },
		"both transports to drop the dead connections")

	again, _ := runSplit(t, a, b, plan)
	if !again.Equal(base) {
		t.Fatalf("post-kill run diverged: %d tuples vs baseline %d", again.Cardinality(), base.Cardinality())
	}
	if connCount(trA)+connCount(trB) == 0 {
		t.Fatal("second run crossed processes without dialing a connection")
	}
}

// TestChaosTCPDeadPeerFailsFast pins what happens when a peer is gone for
// good: the first run warms the links, then the peer's transport closes,
// listeners included. The next run must fail with a retryable ErrTransport
// from its dial, within a second: a refused dial is not retried, so the
// serving layer re-runs the query at once instead of after a backoff.
func TestChaosTCPDeadPeerFailsFast(t *testing.T) {
	a, b := twoProcessCluster(t)
	r := randGraph("R", 600, 70, 302)
	a.Load(r)
	b.Load(r)
	plan := shuffleGather("R", []string{"dst"})
	runSplit(t, a, b, plan)

	b.Close()
	trA := a.Transport().(*TCPTransport)
	waitUntil(t, func() bool { return connCount(trA) == 0 }, "the survivor to drop the dead peer's connections")

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	start := time.Now()
	_, _, err := a.RunFragments(ctx, plan)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("run against a dead peer took %v, want under 1s", elapsed)
	}
	if !errors.Is(err, ErrTransport) || !Retryable(err) {
		t.Fatalf("run against a dead peer returned %v, want a retryable ErrTransport", err)
	}
	if !strings.Contains(err.Error(), "dial") {
		t.Errorf("error %q does not come from the refused dial", err)
	}
}

// TestChaosTCPKillMidStream drives the transport directly: a connection kill
// between two columnar sends of one stream, on the sender's side, the
// receiver's or both. Nothing is resent, so the receiver either ends the
// stream with every tuple exactly once or fails it with a retryable error
// (and the sender may fail too); a stream that closes must never be
// missing a tuple. When the sender dies instead, sending nothing more, the
// receiver must fail the stream rather than wait for it.
func TestChaosTCPKillMidStream(t *testing.T) {
	first := []rel.Tuple{{1, 10}, {1, 11}, {2, 10}}
	second := []rel.Tuple{{3, 10}, {3, 11}}
	for _, kill := range []string{"sender", "receiver", "both", "sender dies"} {
		t.Run(kill, func(t *testing.T) {
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

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := trA.Send(ctx, 0, 0, 1, batchOf(first...)); err != nil {
				t.Fatalf("send before kill: %v", err)
			}
			waitUntil(t, func() bool { return trB.QueueCount() >= 1 }, "first frame delivery")
			var sendErr error
			switch kill {
			case "sender dies":
				trA.Close()
				sendErr = errors.New("the sender died mid-stream")
			default:
				if kill != "receiver" {
					trA.KillConnections()
				}
				if kill != "sender" {
					trB.KillConnections()
				}
				sendErr = trA.Send(ctx, 0, 0, 1, batchOf(second...))
				if sendErr != nil && !Retryable(sendErr) {
					t.Fatalf("send after kill: %v, want nil or a retryable error", sendErr)
				}
				// A run announces end-of-stream even after a failed send.
				if err := trA.CloseSend(ctx, 0, 0); err != nil && !Retryable(err) {
					t.Fatalf("close send A: %v", err)
				}
			}
			if err := trB.CloseSend(ctx, 0, 1); err != nil && !Retryable(err) {
				t.Fatalf("close send B: %v", err)
			}

			var got []rel.Tuple
			for {
				b, ok, err := trB.Recv(ctx, 0, 1)
				if err != nil {
					if ctx.Err() != nil || !Retryable(err) {
						t.Fatalf("recv: %v, want a retryable error before the deadline", err)
					}
					if kill == "sender dies" {
						// A queue of the same run opened after the loss fails
						// too: the lost connection may have carried its frames.
						if _, _, err := trB.Recv(ctx, 1, 1); ctx.Err() != nil || !Retryable(err) {
							t.Fatalf("recv on another exchange of the run: %v, want a retryable error", err)
						}
					}
					return
				}
				if !ok {
					break
				}
				got = append(got, rowsOf(b)...)
			}
			if sendErr != nil {
				t.Fatalf("the stream closed although %v: got %v", sendErr, got)
			}
			want := append(append([]rel.Tuple(nil), first...), second...)
			if len(got) != len(want) {
				t.Fatalf("closed stream delivered %v, want %v exactly once", got, want)
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("tuple %d = %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

// killThenResend sends one stream from worker 0 to worker 1 with a kill
// of both ends' connections between its two sends. The stream must fail
// with a retryable error, because the lost connection carried its first
// frame. The whole stream is then sent again in a fresh epoch, the way the
// serving layer re-runs a query. It returns both transports, the resend's
// exchange id, and what the resent stream delivered to worker 1.
func killThenResend(t *testing.T, first, second []rel.Tuple) (trA, trB *TCPTransport, ex int, got []rel.Tuple) {
	t.Helper()
	trA, err := NewTCPTransport([]string{"127.0.0.1:0", "127.0.0.1:0"}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { trA.Close() })
	trB, err = NewTCPTransport(trA.Addrs(), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { trB.Close() })
	trA.SetPeerAddrs(trB.Addrs())

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Epoch 0: the kill falls between the two sends. Once both ends have
	// dropped the dead connections, the second send dials afresh.
	if err := trA.Send(ctx, 0, 0, 1, batchOf(first...)); err != nil {
		t.Fatalf("send before kill: %v", err)
	}
	waitUntil(t, func() bool { return trB.QueueCount() >= 1 }, "first frame delivery")
	if trA.KillConnections()+trB.KillConnections() == 0 {
		t.Fatal("no connections to kill")
	}
	waitUntil(t, func() bool { return connCount(trA)+connCount(trB) == 0 },
		"both transports to drop the dead connections")
	if err := trA.Send(ctx, 0, 0, 1, batchOf(second...)); err != nil && !Retryable(err) {
		t.Fatalf("send after kill: %v, want nil or a retryable error", err)
	}
	for src, tr := range []*TCPTransport{trA, trB} {
		if err := tr.CloseSend(ctx, 0, src); err != nil && !Retryable(err) {
			t.Fatalf("close send %d after kill: %v", src, err)
		}
	}
	for {
		_, ok, err := trB.Recv(ctx, 0, 1)
		if err != nil {
			if ctx.Err() != nil || !Retryable(err) {
				t.Fatalf("recv after kill: %v, want a retryable error before the deadline", err)
			}
			break
		}
		if !ok {
			t.Fatal("the stream closed although a connection that carried it was lost")
		}
	}
	trA.ReleaseEpoch(0)
	trB.ReleaseEpoch(0)

	// Epoch 1: the resend, the whole stream again.
	ex = 1 << 20
	for _, b := range [][]rel.Tuple{first, second} {
		if err := trA.Send(ctx, ex, 0, 1, batchOf(b...)); err != nil {
			t.Fatalf("resend: %v", err)
		}
	}
	for src, tr := range []*TCPTransport{trA, trB} {
		if err := tr.CloseSend(ctx, ex, src); err != nil {
			t.Fatalf("close send %d of the resend: %v", src, err)
		}
	}
	for {
		b, ok, err := trB.Recv(ctx, ex, 1)
		if err != nil {
			t.Fatalf("recv resent stream: %v", err)
		}
		if !ok {
			break
		}
		got = append(got, rowsOf(b)...)
	}
	return trA, trB, ex, got
}

// TestChaosTCPResendNoDuplicates pins the exchange's only resend: a kill
// between two sends fails the stream, and the stream sent again in a
// fresh epoch delivers each tuple exactly once. Nothing of the failed
// epoch, neither its delivered first frame nor the frames sent after the
// kill, leaks into the resend.
func TestChaosTCPResendNoDuplicates(t *testing.T) {
	first := []rel.Tuple{{1, 10}, {1, 11}, {2, 10}}
	second := []rel.Tuple{{3, 10}, {3, 11}}
	_, _, _, got := killThenResend(t, first, second)
	want := append(append([]rel.Tuple(nil), first...), second...)
	if len(got) != len(want) {
		t.Fatalf("resent stream delivered %v, want %v exactly once", got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("resent tuple %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestTCPCloseDuringDialDoesNotLeak regression-tests the close-vs-dial race:
// Close snapshots the registered connections, so a dial that completes after
// the snapshot but before registration used to leave its socket open forever.
// The fix has dialLocked notice the closed transport and shut the fresh
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
		sendErr <- trA.Send(context.Background(), 0, 0, 1, batchOf(rel.Tuple{1}))
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
	waitUntil(t, func() bool { return connCount(trB) == 0 }, "peer to drop the leaked connection")
}
