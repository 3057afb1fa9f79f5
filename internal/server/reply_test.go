package server

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"parajoin"
	"parajoin/client"
	"parajoin/internal/colbatch"
	"parajoin/internal/wire"
)

// TestOversizedReplyKeepsConnection: a response just over wire.MaxFrame is
// answered with a typed CodeTooLarge error for its own request, and the
// next request on the same connection still gets its rows.
func TestOversizedReplyKeepsConnection(t *testing.T) {
	db := parajoin.Open(2, parajoin.WithSeed(7))
	defer db.Close()
	if err := db.LoadEdges("E", parajoin.SyntheticGraph(300, 60, 5)); err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{Logf: func(string, ...any) {}})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	conn, peer := net.Pipe()
	defer peer.Close()
	ss := srv.newSession(conn)
	served := make(chan struct{})
	go func() {
		defer close(served)
		ss.serve()
	}()

	// The payload alone fills MaxFrame, so header plus payload is over it.
	huge := &wire.Response{ID: 1, RowsEnc: make([]byte, wire.MaxFrame)}
	replied := make(chan struct{})
	go func() {
		defer close(replied)
		ss.reply(huge)
	}()
	var resp wire.Response
	if err := wire.ReadFrame(peer, &resp); err != nil {
		t.Fatalf("reading the answer to the oversized reply: %v", err)
	}
	if resp.ID != 1 || resp.ErrCode != wire.CodeTooLarge || len(resp.RowsEnc) != 0 {
		t.Fatalf("oversized reply answered as id %d, code %q, %d row bytes", resp.ID, resp.ErrCode, len(resp.RowsEnc))
	}
	<-replied
	if err := (&client.ServerError{Code: resp.ErrCode, Msg: resp.Err}); !errors.Is(err, client.ErrTooLarge) {
		t.Fatalf("client maps %q to %v, want ErrTooLarge", resp.ErrCode, err.Unwrap())
	}

	req := wire.Request{ID: 2, Op: wire.OpRun, Rule: "P(x,y,z) :- E(x,y), E(y,z)"}
	if err := wire.WriteFrame(peer, req); err != nil {
		t.Fatalf("second request on the same connection: %v", err)
	}
	resp = wire.Response{}
	if err := wire.ReadFrame(peer, &resp); err != nil {
		t.Fatalf("reading the second answer: %v", err)
	}
	if resp.ID != 2 || resp.ErrCode != "" {
		t.Fatalf("second answer: id %d, code %q: %s", resp.ID, resp.ErrCode, resp.Err)
	}
	rows, err := colbatch.DecodeRowsStream(resp.RowsEnc)
	if err != nil || len(rows) == 0 {
		t.Fatalf("second answer decoded to %d rows: %v", len(rows), err)
	}
	peer.Close()
	<-served
}
