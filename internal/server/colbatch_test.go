// Colbatch result rows: frame-level checks that the server always answers
// run with a colbatch stream, and that the Go client decodes it to the
// rows an in-process run returns.
package server_test

import (
	"context"
	"net"
	"reflect"
	"testing"

	"parajoin"
	"parajoin/client"
	"parajoin/internal/colbatch"
	"parajoin/internal/server"
	"parajoin/internal/wire"
)

// rawQuery speaks the wire protocol directly — one request, one response —
// so tests can see which encoding the server actually used, beneath the
// client's transparent decoding.
func rawQuery(t *testing.T, addr string, req wire.Request) wire.Response {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := wire.ReadFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatalf("server error %s: %s", resp.ErrCode, resp.Err)
	}
	return resp
}

// TestServerColumnarResults checks the result encoding end to end: a
// request without Encoding and one carrying the version-3 "colbatch" value
// both get RowsEnc; the stream decodes to the rows an in-process run under
// a different strategy returns, and is smaller than those rows at 8 bytes
// per value; and the Go client hands the caller those same rows.
func TestServerColumnarResults(t *testing.T) {
	_, db, addr := newTestServer(t, 1500, server.Config{})

	q, err := db.Query(triRule)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := q.RunWithOptions(context.Background(), parajoin.RunOptions{Strategy: "rs_hj"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rows) == 0 {
		t.Fatal("reference run found no triangles; test data too sparse")
	}
	want := canon(ref.Rows)

	for _, enc := range []string{"", wire.EncodingColbatch} {
		resp := rawQuery(t, addr, wire.Request{
			ID: 1, Op: wire.OpRun, Proto: wire.ProtoVersion, Rule: triRule,
			Strategy: "hc_tj", Encoding: enc,
		})
		decoded, err := colbatch.DecodeRowsStream(resp.RowsEnc)
		if err != nil {
			t.Fatalf("Encoding %q: decoding RowsEnc: %v", enc, err)
		}
		if !reflect.DeepEqual(canon(decoded), want) {
			t.Fatalf("Encoding %q: RowsEnc decodes to %d rows, reference run has %d",
				enc, len(decoded), len(want))
		}
		if flat := len(want) * 3 * 8; len(resp.RowsEnc) >= flat {
			t.Errorf("Encoding %q: RowsEnc %d bytes, not below the flat 8-byte-per-value %d",
				enc, len(resp.RowsEnc), flat)
		}
	}

	res, err := dial(t, addr).Run(context.Background(), triRule, client.QueryOptions{Strategy: "hc_tj"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canon(res.Rows), want) {
		t.Fatalf("client decoded %d rows, reference run has %d", len(res.Rows), len(want))
	}
}
