package engine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"parajoin/internal/rel"
	"parajoin/internal/wire"
)

// TestTCPColumnarMatchesLegacy is the oracle for colbatch frames: the same
// shuffle split across two processes (every cross-process batch one
// encoded colbatch frame) and on a single-process cluster (every batch
// passed by reference, the path that predates colbatch) must produce
// identical bags.
func TestTCPColumnarMatchesLegacy(t *testing.T) {
	r := randGraph("R", 1500, 80, 46)
	plan := shuffleGather("R", []string{"dst"})

	a, b := twoProcessCluster(t)
	a.Load(r)
	b.Load(r)
	got, _ := runSplit(t, a, b, plan)

	mem := NewCluster(4)
	defer mem.Close()
	mem.Load(r)
	want, _, err := mem.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("TCP and in-memory shuffles diverged: %d vs %d tuples",
			got.Cardinality(), want.Cardinality())
	}
}

// TestTCPColumnarByteParityAfterResend extends the byte-parity invariant
// through the reconnect/resend path: a connection kill between two columnar
// sends forces a redial that replays the unacked frame, and once the inbox
// drains, cross-endpoint sent and received byte totals must still agree —
// the resent frame's bytes are counted on both sides, and the duplicate the
// receiver drops was still read (and counted) off the wire.
func TestTCPColumnarByteParityAfterResend(t *testing.T) {
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
	if err := trA.Send(ctx, 0, 0, 1, []rel.Tuple{{1, 10}, {1, 11}, {2, 10}}); err != nil {
		t.Fatalf("send before kill: %v", err)
	}
	waitUntil(t, func() bool { return trB.QueueCount() >= 1 }, "first frame delivery")

	trA.KillConnections()
	trB.KillConnections()

	if err := trA.Send(ctx, 0, 0, 1, []rel.Tuple{{3, 10}, {3, 11}}); err != nil {
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
	if len(got) != 5 {
		t.Fatalf("drained %d tuples, want exactly 5: %v", len(got), got)
	}
	// Drain worker 0's (empty) inbox on A too: its queue closes only after
	// both close frames bound for A have been read off the wire, so once
	// Recv reports done every data-direction frame has been counted.
	for {
		b, ok, err := trA.Recv(ctx, 0, 0)
		if err != nil {
			t.Fatalf("recv A: %v", err)
		}
		if !ok {
			break
		}
		if len(b) != 0 {
			t.Fatalf("worker 0 received unexpected tuples: %v", b)
		}
	}

	var reconnects int64
	for _, ph := range trA.PeerHealth() {
		reconnects += ph.Reconnects
	}
	if reconnects == 0 {
		t.Fatal("no reconnect observed — the kill did not exercise the resend path")
	}

	// Acks ride the reverse direction uncounted, so even with the replayed
	// frame the data direction's totals must match exactly across endpoints.
	sa := trA.TransportStats()
	sb := trB.TransportStats()
	if sa.BytesSent+sb.BytesSent == 0 {
		t.Fatal("no bytes metered")
	}
	if got, want := sa.BytesReceived+sb.BytesReceived, sa.BytesSent+sb.BytesSent; got != want {
		t.Fatalf("byte parity broken after resend: received=%d sent=%d (A %+v, B %+v)", got, want, sa, sb)
	}
}

// An exchange frame's batch travels as the frame's raw payload: the frame
// is the JSON header, the batch and two length words.
func TestTCPFrameBatchTravelsRaw(t *testing.T) {
	col, err := encodeBatch([]rel.Tuple{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	in := frame{Exchange: 1<<16 | 3, Src: 1, Dst: 2, Seq: 9, Col: col}
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	bare := in
	bare.Col = nil
	header, err := json.Marshal(bare)
	if err != nil {
		t.Fatal(err)
	}
	if max := len(col) + len(header) + 8; buf.Len() > max {
		t.Fatalf("frame is %d bytes, want at most %d", buf.Len(), max)
	}
	var out frame
	if err := wire.ReadFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.Exchange != in.Exchange || out.Seq != in.Seq || !bytes.Equal(out.Col, col) {
		t.Fatalf("got %+v, want %+v", out, in)
	}
}

// TestTCPCorruptFrameDropsConnection feeds a hosted worker's listener a
// data frame whose batch fails colbatch validation. The receiver must hang
// up without acking and without moving the dedup high-water mark, so the
// sender's resend of the same sequence number is admitted — exactly once.
func TestTCPCorruptFrameDropsConnection(t *testing.T) {
	tr, err := NewTCPTransport([]string{"127.0.0.1:0"}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	want := []rel.Tuple{{1, 2}, {3, 4}}
	good, err := encodeBatch(want)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xff // payload byte flipped: checksum mismatch

	// dial opens a raw sender connection; send writes one frame on it.
	dial := func() (net.Conn, *bufio.Reader) {
		t.Helper()
		c, err := net.Dial("tcp", tr.Addrs()[0])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.SetDeadline(time.Now().Add(10 * time.Second))
		return c, bufio.NewReader(c)
	}
	send := func(c net.Conn, f frame) {
		t.Helper()
		if err := wire.WriteFrame(c, f); err != nil {
			t.Fatalf("write frame %+v: %v", f, err)
		}
	}

	c, r := dial()
	send(c, frame{Seq: 1, Col: bad})
	var reply frame
	if err := wire.ReadFrame(r, &reply); err == nil {
		t.Fatalf("corrupt frame answered with %+v", reply)
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("connection not dropped after a corrupt frame")
	}

	c, r = dial()
	for _, f := range []frame{{Seq: 1, Col: good}, {Seq: 1, Col: good}, {Seq: 2, Close: true}} {
		send(c, f)
		if err := wire.ReadFrame(r, &reply); err != nil {
			t.Fatalf("no ack for %+v: %v", f, err)
		}
		if !reply.Ack || reply.Seq != f.Seq {
			t.Fatalf("reply %+v to frame seq %d, want its ack", reply, f.Seq)
		}
	}
	var got []rel.Tuple
	for {
		b, ok, err := tr.Recv(context.Background(), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, b...)
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v exactly once", got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("tuple %d = %v, want %v", i, got[i], want[i])
		}
	}
}
