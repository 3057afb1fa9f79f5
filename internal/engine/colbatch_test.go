package engine

import (
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
// through a kill and the resend that follows it: a connection kill between
// two columnar sends fails the stream, the frames sent after the kill are
// read and dropped, and the whole stream is sent again in a fresh epoch.
// Once both inboxes drain, cross-endpoint sent and received byte totals
// must still agree: every byte written to a live connection, dropped
// frames included, was read and counted off the wire.
func TestTCPColumnarByteParityAfterResend(t *testing.T) {
	first := []rel.Tuple{{1, 10}, {1, 11}, {2, 10}}
	second := []rel.Tuple{{3, 10}, {3, 11}}
	trA, trB, ex, got := killThenResend(t, first, second)
	if want := len(first) + len(second); len(got) != want {
		t.Fatalf("resent stream delivered %d tuples, want %d", len(got), want)
	}
	// Drain worker 0's (empty) inbox on A too: its queue closes only after
	// B's close frame is read, and that frame follows every frame B wrote
	// to A. The drained inbox on B did the same for A's frames, so once
	// Recv reports done every frame has been counted.
	for {
		b, ok, err := trA.Recv(context.Background(), ex, 0)
		if err != nil {
			t.Fatalf("recv A: %v", err)
		}
		if !ok {
			break
		}
		if b.Len() != 0 {
			t.Fatalf("worker 0 received unexpected tuples: %v", b)
		}
	}

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
	col, err := encodeBatch(batchOf(rel.Tuple{1, 2}, rel.Tuple{3, 4}, rel.Tuple{5, 6}))
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

// TestTCPCorruptFrameDropsConnection feeds a hosted worker's listener, over
// raw connections, one broken stream each: a batch that fails colbatch
// validation, a skipped sequence number, a repeated one, and a close whose
// number does not follow the last data frame. Each must make Recv on that
// stream return a retryable ErrTransport, and the corrupt batch must also
// drop its connection. A lost connection fails every run it carried, so
// each case has an epoch of its own, and a contiguous stream of a later
// epoch on a fresh connection must still arrive intact.
func TestTCPCorruptFrameDropsConnection(t *testing.T) {
	tr, err := NewTCPTransport([]string{"127.0.0.1:0"}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	want := []rel.Tuple{{1, 2}, {3, 4}}
	good, err := encodeBatch(batchOf(want...))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xff // payload byte flipped: checksum mismatch

	// send opens a raw sender connection and writes the frames on it.
	send := func(frames ...frame) net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", tr.Addrs()[0])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.SetDeadline(time.Now().Add(10 * time.Second))
		for _, f := range frames {
			if err := wire.WriteFrame(c, f); err != nil {
				t.Fatalf("write frame %+v: %v", f, err)
			}
		}
		return c
	}

	for i, tc := range []struct {
		name   string
		frames []frame
		drops  bool
	}{
		{"corrupt batch", []frame{{Seq: 1, Col: bad}}, true},
		{"skipped seq", []frame{{Seq: 1, Col: good}, {Seq: 3, Col: good}}, false},
		{"repeated seq", []frame{{Seq: 1, Col: good}, {Seq: 1, Col: good}}, false},
		{"close with the wrong count", []frame{{Seq: 1, Col: good}, {Seq: 3, Close: true}}, false},
	} {
		ex := (i + 1) << 20 // epoch i+1
		for j := range tc.frames {
			tc.frames[j].Exchange = ex
		}
		c := send(tc.frames...)
		if tc.drops {
			if _, err := c.Read(make([]byte, 1)); err == nil {
				t.Fatalf("%s: the receiver wrote back", tc.name)
			} else if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("%s: connection not dropped", tc.name)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		for {
			_, ok, err := tr.Recv(ctx, ex, 0)
			if err != nil {
				if ctx.Err() != nil || !Retryable(err) {
					t.Fatalf("%s: recv returned %v, want a retryable ErrTransport", tc.name, err)
				}
				break
			}
			if !ok {
				t.Fatalf("%s: the broken stream closed cleanly", tc.name)
			}
		}
		cancel()
	}

	ex := 5 << 20
	send(frame{Exchange: ex, Seq: 1, Col: good}, frame{Exchange: ex, Seq: 2, Col: good},
		frame{Exchange: ex, Seq: 3, Close: true})
	var got []rel.Tuple
	for {
		b, ok, err := tr.Recv(context.Background(), ex, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, rowsOf(b)...)
	}
	if len(got) != 2*len(want) {
		t.Fatalf("delivered %v, want %v twice", got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i%len(want)]) {
			t.Fatalf("tuple %d = %v, want %v", i, got[i], want[i%len(want)])
		}
	}
}
