// Integration tests for prepared statements over TCP: per-connection
// statement ownership, byte-identical repeated executions, idempotent
// close, protocol version echo, the typed unsupported_frame error, and
// cache-flag plumbing end to end.
package server_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"parajoin"
	"parajoin/client"
	"parajoin/internal/metrics"
	"parajoin/internal/server"
	"parajoin/internal/wire"
)

// newCachingTestServer is newTestServer with the DB's result cache
// enabled, so prepared re-executions exercise the cache path.
func newCachingTestServer(t *testing.T, edges int) (*parajoin.DB, string) {
	t.Helper()
	db := parajoin.Open(4, parajoin.WithResultCache(1<<16))
	if err := db.LoadEdges("E", parajoin.SyntheticGraph(edges, 300, 5)); err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{Logf: quiet})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		db.Close()
	})
	return db, ln.Addr().String()
}

func TestPreparedExecuteMatchesRun(t *testing.T) {
	_, _, addr := newTestServer(t, 800, server.Config{})
	c := dial(t, addr)
	ctx := context.Background()

	stmt, err := c.Prepare(ctx, "P(x,z) :- E(x,y), E(y,z), E(z,?)")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", stmt.NumParams())
	}

	// Find a node that actually appears so the answer is non-empty.
	probe, err := c.Run(ctx, "Q(x,y) :- E(x,y)", client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	arg := probe.Rows[0][0]

	got, err := stmt.Execute(ctx, arg)
	if err != nil {
		t.Fatal(err)
	}
	inline := strings.Replace(stmt.String(), "?", strconv.FormatInt(arg, 10), 1)
	want, err := c.Run(ctx, inline, client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Columns, want.Columns) {
		t.Fatalf("columns %v != %v", got.Columns, want.Columns)
	}
	if !reflect.DeepEqual(canon(got.Rows), canon(want.Rows)) {
		t.Fatalf("prepared execute and inline run disagree: %d vs %d rows",
			len(got.Rows), len(want.Rows))
	}

	// Repeated executions with the same arguments are byte-identical.
	again, err := stmt.Execute(ctx, arg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Columns, got.Columns) ||
		!reflect.DeepEqual(canon(again.Rows), canon(got.Rows)) {
		t.Fatal("repeated execution of the same statement diverged")
	}
	if err := stmt.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedCacheFlags checks the cache path end to end over TCP: the
// second identical execution replays from the result cache, and a fresh
// argument misses it.
func TestPreparedCacheFlags(t *testing.T) {
	_, addr := newCachingTestServer(t, 800)
	c := dial(t, addr)
	ctx := context.Background()

	stmt, err := c.Prepare(ctx, "P(x,z) :- E(x,y), E(y,z), E(z,?)")
	if err != nil {
		t.Fatal(err)
	}
	probe, err := c.Run(ctx, "Q(x,y) :- E(x,y)", client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	arg, other := probe.Rows[0][0], probe.Rows[len(probe.Rows)-1][1]

	first, err := stmt.Execute(ctx, arg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.ResultCached {
		t.Fatal("first execution claims a result-cache hit")
	}
	second, err := stmt.Execute(ctx, arg)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.ResultCached {
		t.Fatal("second identical execution missed the result cache")
	}
	if !reflect.DeepEqual(second.Columns, first.Columns) ||
		!reflect.DeepEqual(second.Rows, first.Rows) {
		t.Fatal("cached replay is not byte-identical to the original run")
	}

	if other == arg {
		other++ // any different argument must miss
	}
	third, err := stmt.Execute(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	if third.Stats.ResultCached {
		t.Fatal("different arguments must not share a result-cache entry")
	}
}

// TestPreparedStatementIsolation: statement handles are per-connection. A
// second connection reusing another session's handle gets bad_request, and
// handles are not guessable across sessions in any useful way.
func TestPreparedStatementIsolation(t *testing.T) {
	_, _, addr := newTestServer(t, 400, server.Config{})
	connA := rawDial(t, addr)
	connB := rawDial(t, addr)

	resp := rawCall(t, connA, &wire.Request{ID: 1, Op: wire.OpPrepare, Rule: "P(y) :- E(?,y)"})
	if resp.ErrCode != "" {
		t.Fatalf("prepare failed: %s %s", resp.ErrCode, resp.Err)
	}
	handle := resp.Stmt

	// Connection B never prepared anything; A's handle must not resolve.
	resp = rawCall(t, connB, &wire.Request{ID: 1, Op: wire.OpExecute, Stmt: handle, Args: []int64{1}})
	if resp.ErrCode != wire.CodeBadRequest {
		t.Fatalf("cross-connection execute: got code %q, want %q", resp.ErrCode, wire.CodeBadRequest)
	}

	// A's own handle still works after B's failed probe.
	resp = rawCall(t, connA, &wire.Request{ID: 2, Op: wire.OpExecute, Stmt: handle, Args: []int64{1}})
	if resp.ErrCode != "" {
		t.Fatalf("owner execute failed: %s %s", resp.ErrCode, resp.Err)
	}
}

func TestCloseStmtIdempotentAndExecuteAfterClose(t *testing.T) {
	_, _, addr := newTestServer(t, 400, server.Config{})
	c := dial(t, addr)
	ctx := context.Background()

	stmt, err := c.Prepare(ctx, "P(y) :- E(?,y)")
	if err != nil {
		t.Fatal(err)
	}
	if err := stmt.Close(ctx); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := stmt.Close(ctx); err != nil {
		t.Fatalf("second close should be idempotent: %v", err)
	}
	if _, err := stmt.Execute(ctx, 1); err == nil {
		t.Fatal("execute after close succeeded")
	} else if !strings.Contains(err.Error(), "unknown statement") {
		t.Fatalf("execute after close: %v", err)
	}
}

// TestUnsupportedFrame: an op the server does not know gets the typed
// unsupported_frame code and the connection stays usable; responses echo
// the server's protocol version when the client advertised one.
func TestUnsupportedFrame(t *testing.T) {
	_, _, addr := newTestServer(t, 400, server.Config{})
	conn := rawDial(t, addr)

	resp := rawCall(t, conn, &wire.Request{ID: 1, Op: "frobnicate", Proto: wire.ProtoVersion})
	if resp.ErrCode != wire.CodeUnsupportedFrame {
		t.Fatalf("unknown op: got code %q, want %q", resp.ErrCode, wire.CodeUnsupportedFrame)
	}
	if resp.Proto != wire.ProtoVersion {
		t.Fatalf("response proto = %d, want %d", resp.Proto, wire.ProtoVersion)
	}

	// The connection survived the unsupported frame.
	resp = rawCall(t, conn, &wire.Request{ID: 2, Op: wire.OpPing})
	if resp.ErrCode != "" {
		t.Fatalf("ping after unsupported frame: %s %s", resp.ErrCode, resp.Err)
	}
}

// TestClientUnsupportedSentinel: the client maps unsupported_frame to
// ErrUnsupported so callers can degrade with errors.Is.
func TestClientUnsupportedSentinel(t *testing.T) {
	err := (&client.ServerError{Code: wire.CodeUnsupportedFrame, Msg: "nope"}).Unwrap()
	if !errors.Is(err, client.ErrUnsupported) {
		t.Fatalf("unwrap = %v, want ErrUnsupported", err)
	}
}

// TestPreparedGaugeDrains: the prepared-statement gauge rises with live
// statements and returns to its baseline once the owning connection goes
// away (drain-safe cleanup).
func TestPreparedGaugeDrains(t *testing.T) {
	_, _, addr := newTestServer(t, 400, server.Config{})
	base := preparedGauge(t)

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.Prepare(ctx, "P(y) :- E(?,y)"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "gauge to count live statements", func() bool { return preparedGauge(t) == base+3 })
	c.Close()
	waitFor(t, "gauge to drain on disconnect", func() bool { return preparedGauge(t) == base })
}

// preparedGauge scrapes parajoin_prepared_statements from the process
// metrics registry.
func preparedGauge(t *testing.T) int64 {
	t.Helper()
	var buf bytes.Buffer
	metrics.Default.WritePrometheus(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "parajoin_prepared_statements ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, "parajoin_prepared_statements "), 64)
			if err != nil {
				t.Fatalf("bad gauge line %q: %v", line, err)
			}
			return int64(v)
		}
	}
	t.Fatal("parajoin_prepared_statements not found in metrics dump")
	return 0
}

func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// rawCall speaks the wire protocol directly, bypassing the client — for
// frames the client cannot or will not send.
func rawCall(t *testing.T, conn net.Conn, req *wire.Request) *wire.Response {
	t.Helper()
	if err := wire.WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	resp := new(wire.Response)
	if err := wire.ReadFrame(conn, resp); err != nil {
		t.Fatal(err)
	}
	return resp
}
