package server

import (
	"context"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"parajoin"
	"parajoin/client"
	"parajoin/internal/colbatch"
	"parajoin/internal/metrics"
	"parajoin/internal/rel"
	"parajoin/internal/wire"
)

// p2Rule is a two-hop path with every variable in the head. On the graph
// streamServer loads, its answer spans several chunk frames.
const p2Rule = "P(x,y,z) :- E(x,y), E(y,z)"

var hcTJ = string(parajoin.HyperCubeTributary)

// streamServer starts a server over a 2-worker DB whose P2 answer takes
// eight chunk frames, and returns it with the DB.
func streamServer(t *testing.T) (*Server, *parajoin.DB) {
	t.Helper()
	db := parajoin.Open(2)
	if err := db.LoadEdges("E", parajoin.SyntheticGraph(10000, 500, 5)); err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{Logf: func(string, ...any) {}})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		db.Close()
	})
	return srv, db
}

// pipeSession serves one session of srv over an in-memory pipe and returns
// the client's end. A pipe write blocks until the peer reads it, so the
// test decides when each frame of an answer leaves the server.
func pipeSession(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	conn, peer := net.Pipe()
	ss := srv.newSession(conn)
	served := make(chan struct{})
	go func() {
		defer close(served)
		ss.serve()
	}()
	t.Cleanup(func() {
		peer.Close()
		<-served
	})
	return peer
}

// inProcess is rule's answer from RunWithOptions on db, the rows a served
// answer must equal row for row.
func inProcess(t *testing.T, db *parajoin.DB, rule string) [][]int64 {
	t.Helper()
	q, err := db.Query(rule)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.RunWithOptions(context.Background(), parajoin.RunOptions{Strategy: parajoin.HyperCubeTributary})
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

func send(t *testing.T, conn net.Conn, req *wire.Request) {
	t.Helper()
	if err := wire.WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
}

func recv(t *testing.T, conn net.Conn) *wire.Response {
	t.Helper()
	resp := new(wire.Response)
	if err := wire.ReadFrame(conn, resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// chunkRows decodes one frame's chunk.
func chunkRows(t *testing.T, resp *wire.Response) [][]int64 {
	t.Helper()
	rows, err := colbatch.DecodeRowsStream(resp.RowsEnc)
	if err != nil {
		t.Fatalf("frame of request %d: %v", resp.ID, err)
	}
	return rows
}

func sameRows(t *testing.T, what string, got, want [][]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: row %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestChunkedAnswerMatchesRun: a P2 answer arrives as at least three
// frames on its request ID. Every frame but the last sets More and carries
// only a chunk, the last carries the columns and stats, and the chunks
// concatenated equal RunWithOptions' rows, in order.
func TestChunkedAnswerMatchesRun(t *testing.T) {
	srv, db := streamServer(t)
	want := inProcess(t, db, p2Rule)
	conn := pipeSession(t, srv)
	send(t, conn, &wire.Request{ID: 1, Op: wire.OpRun, Proto: wire.ProtoVersion, Rule: p2Rule, Strategy: hcTJ})
	var (
		got    [][]int64
		frames int
		last   *wire.Response
	)
	for last == nil {
		resp := recv(t, conn)
		frames++
		if resp.ID != 1 || resp.ErrCode != "" {
			t.Fatalf("frame %d: id %d, code %q: %s", frames, resp.ID, resp.ErrCode, resp.Err)
		}
		if resp.More && (resp.Columns != nil || resp.Stats != nil) {
			t.Fatalf("frame %d sets More but carries columns %v, stats %v", frames, resp.Columns, resp.Stats)
		}
		got = append(got, chunkRows(t, resp)...)
		if !resp.More {
			last = resp
		}
	}
	t.Logf("%d rows in %d frames", len(want), frames)
	if frames < 3 {
		t.Fatalf("a %d-row answer came in %d frames, want at least 3", len(want), frames)
	}
	if !slices.Equal(last.Columns, []string{"x", "y", "z"}) || last.Stats == nil {
		t.Fatalf("last frame: columns %v, stats %v", last.Columns, last.Stats)
	}
	sameRows(t, "streamed answer", got, want)
}

// TestConcurrentChunkedAnswersInterleave: two multi-chunk answers on one
// connection both arrive intact, their frames interleaved. Over a pipe an
// answer's write waits until the test reads it, and the test pauses before
// each read, so the other answer is queued on the write lock, which each
// frame takes alone, whenever one frame ends. The same two queries through
// one client, concurrently, also come back whole.
func TestConcurrentChunkedAnswersInterleave(t *testing.T) {
	const rule = "Q(x,y,z) :- E(x,y), E(y,z)"
	srv, db := streamServer(t)
	want := inProcess(t, db, rule)
	conn := pipeSession(t, srv)
	for id := uint64(1); id <= 2; id++ {
		send(t, conn, &wire.Request{ID: id, Op: wire.OpRun, Proto: wire.ProtoVersion, Rule: rule, Strategy: hcTJ})
	}
	deadline := time.Now().Add(30 * time.Second)
	for streaming := 0; streaming < 2; {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for both answers to start streaming")
		}
		time.Sleep(5 * time.Millisecond)
		streaming = 0
		for _, q := range metrics.InflightQueries() {
			if q.Rule == rule && q.Stage == "streaming" {
				streaming++
			}
		}
	}
	got := map[uint64][][]int64{}
	var order []uint64
	for open := 2; open > 0; {
		time.Sleep(20 * time.Millisecond)
		resp := recv(t, conn)
		if resp.ErrCode != "" {
			t.Fatalf("request %d: %s: %s", resp.ID, resp.ErrCode, resp.Err)
		}
		order = append(order, resp.ID)
		got[resp.ID] = append(got[resp.ID], chunkRows(t, resp)...)
		if !resp.More {
			open--
		}
	}
	t.Logf("frame order %v", order)
	switches := 0
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1] {
			switches++
		}
	}
	if switches < 2 {
		t.Fatalf("frames arrived in request order %v, not interleaved", order)
	}
	sameRows(t, "answer 1", got[1], want)
	sameRows(t, "answer 2", got[2], want)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	c, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	results := make(chan [][]int64, 2)
	for range 2 {
		go func() {
			res, err := c.Run(context.Background(), rule, client.QueryOptions{Strategy: hcTJ})
			if err != nil {
				t.Error(err)
				results <- nil
				return
			}
			results <- res.Rows
		}()
	}
	for range 2 {
		sameRows(t, "client answer", <-results, want)
	}
}

// TestCancelDuringStreamEndsCanceled: a cancel that lands while an answer
// streams ends it with a CodeCanceled frame instead of its last chunk, so
// the client holds rows it must drop, never an answer it could mistake for
// whole.
func TestCancelDuringStreamEndsCanceled(t *testing.T) {
	srv, db := streamServer(t)
	total := len(inProcess(t, db, p2Rule))
	conn := pipeSession(t, srv)
	send(t, conn, &wire.Request{ID: 1, Op: wire.OpRun, Proto: wire.ProtoVersion, Rule: p2Rule, Strategy: hcTJ})
	first := recv(t, conn)
	if first.ID != 1 || !first.More {
		t.Fatalf("first frame: id %d, more %v, code %q", first.ID, first.More, first.ErrCode)
	}
	rows := len(chunkRows(t, first))
	send(t, conn, &wire.Request{ID: 2, Op: wire.OpCancel, Target: 1})
	// The answer's next frame blocks on the pipe meanwhile; the cancel is
	// applied before the test reads it.
	time.Sleep(50 * time.Millisecond)
	var end *wire.Response
	for canceled := false; end == nil || !canceled; {
		resp := recv(t, conn)
		switch {
		case resp.ID == 2:
			canceled = true
		case resp.More:
			rows += len(chunkRows(t, resp))
		default:
			end = resp
		}
	}
	if end.ErrCode != wire.CodeCanceled || len(end.RowsEnc) != 0 {
		t.Fatalf("answer ended with code %q and %d row bytes, want %q and none", end.ErrCode, len(end.RowsEnc), wire.CodeCanceled)
	}
	if rows >= total {
		t.Fatalf("%d of %d rows sent before the cancel took hold", rows, total)
	}
}

// TestPreV6PeerRefusedChunkedAnswer: a peer that advertised protocol 5, or
// none, would take an answer's first frame for all of it, so an answer
// that needs more than one frame is refused to it with
// CodeUnsupportedFrame, on a connection that keeps serving. A one-frame
// answer is the same bytes in every version and still goes to it.
func TestPreV6PeerRefusedChunkedAnswer(t *testing.T) {
	srv, _ := streamServer(t)
	for _, proto := range []int{5, 0} {
		conn := pipeSession(t, srv)
		send(t, conn, &wire.Request{ID: 1, Op: wire.OpRun, Proto: proto, Rule: p2Rule, Strategy: hcTJ})
		resp := recv(t, conn)
		if resp.ID != 1 || resp.ErrCode != wire.CodeUnsupportedFrame || resp.More || len(resp.RowsEnc) != 0 {
			t.Fatalf("proto %d: id %d, code %q, more %v, %d row bytes; want one %q frame",
				proto, resp.ID, resp.ErrCode, resp.More, len(resp.RowsEnc), wire.CodeUnsupportedFrame)
		}
		send(t, conn, &wire.Request{ID: 2, Op: wire.OpRun, Rule: "T(x,y,z) :- E(x,y), E(y,z), E(z,x)", Strategy: hcTJ})
		resp = recv(t, conn)
		if resp.ID != 2 || resp.ErrCode != "" || resp.More || len(chunkRows(t, resp)) == 0 {
			t.Fatalf("proto %d, one-frame answer: id %d, code %q (%s), more %v", proto, resp.ID, resp.ErrCode, resp.Err, resp.More)
		}
	}
}

// discardConn is a connection whose writes succeed and go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkStreamAnswer gives the served answer's encode side its per-row
// figures: a 220 000-row arity-3 answer, result_stream's size, in 8
// worker fragments, cut into chunks, encoded and framed by streamAnswer
// onto a connection that discards the frames.
func BenchmarkStreamAnswer(b *testing.B) {
	const n, frags = 220000, 8
	rng := rand.New(rand.NewSource(1))
	a := &parajoin.Answer{Columns: []string{"x", "y", "z"}}
	for range frags {
		frag := make([]rel.Tuple, n/frags)
		for i := range frag {
			frag[i] = rel.Tuple{rng.Int63n(3000), rng.Int63n(3000), rng.Int63n(3000)}
		}
		a.Fragments = append(a.Fragments, frag)
	}
	db := parajoin.Open(1)
	defer db.Close()
	srv := New(db, Config{Logf: func(string, ...any) {}})
	defer srv.Shutdown(context.Background())
	ss := srv.newSession(discardConn{})
	ss.peerProto.Store(chunkedProto)
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if outcome, err := ss.streamAnswer(context.Background(), &wire.Response{ID: 1, Columns: a.Columns}, a); err != nil {
			b.Fatalf("%s: %v", outcome, err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	rows := float64(b.N * n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/tuple")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/rows, "B/tuple")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/rows, "allocs/tuple")
}
