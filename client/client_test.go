package client_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"parajoin/client"
	"parajoin/internal/colbatch"
	"parajoin/internal/wire"
)

// wantRequestBytes is every byte the client writes for a Ping, then a Run
// canceled mid-flight: the protocol version on the first request only,
// request IDs 1, 2, 3 in order, and a cancel naming the Run's ID as its
// target.
const wantRequestBytes = "\x00\x00\x00\x1e{\"id\":1,\"op\":\"ping\",\"proto\":6}" +
	"\x00\x00\x00+{\"id\":2,\"op\":\"run\",\"rule\":\"Q(x) :- E(x,y)\"}" +
	"\x00\x00\x00!{\"id\":3,\"op\":\"cancel\",\"target\":2}"

// TestRequestBytesUnchanged runs a Ping and a Run canceled mid-flight
// against a fake server that records the client's raw bytes. The bytes
// must match the literal above, and the canceled Run returns
// context.Canceled only once the server has answered it.
func TestRequestBytesUnchanged(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var (
		got      bytes.Buffer
		answered atomic.Bool
		running  = make(chan struct{})
		served   = make(chan error, 1)
	)
	go func() {
		served <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			next := func() (*wire.Request, error) {
				var word [4]byte
				if _, err := io.ReadFull(conn, word[:]); err != nil {
					return nil, err
				}
				body := make([]byte, binary.BigEndian.Uint32(word[:]))
				if _, err := io.ReadFull(conn, body); err != nil {
					return nil, err
				}
				got.Write(word[:])
				got.Write(body)
				req := new(wire.Request)
				return req, json.Unmarshal(body, req)
			}
			ping, err := next()
			if err != nil {
				return err
			}
			if err := wire.WriteFrame(conn, &wire.Response{ID: ping.ID, Proto: wire.ProtoVersion}); err != nil {
				return err
			}
			run, err := next()
			if err != nil {
				return err
			}
			close(running)
			cancel, err := next()
			if err != nil {
				return err
			}
			answered.Store(true)
			if err := wire.WriteFrame(conn, &wire.Response{ID: run.ID, ErrCode: wire.CodeCanceled, Err: "canceled"}); err != nil {
				return err
			}
			return wire.WriteFrame(conn, &wire.Response{ID: cancel.ID})
		}()
	}()

	c, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-running
		cancel()
	}()
	_, err = c.Run(ctx, "Q(x) :- E(x,y)", client.QueryOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Run returned %v, want context.Canceled", err)
	}
	if !answered.Load() {
		t.Fatal("canceled Run returned before the server answered it")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fake server still serving 5s later")
	}
	if got.String() != wantRequestBytes {
		t.Fatalf("client wrote\n%q\nwant\n%q", got.String(), wantRequestBytes)
	}
}

// fakeServer accepts one connection on a loopback listener and runs serve
// on it; the returned channel yields serve's error.
func fakeServer(t *testing.T, serve func(conn net.Conn) error) (string, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		served <- serve(conn)
	}()
	return ln.Addr().String(), served
}

func encodeChunk(t *testing.T, rows [][]int64) []byte {
	t.Helper()
	var enc colbatch.Encoder
	data, err := enc.AppendRows(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunGathersChunkFrames: a Run whose answer arrives as two chunk
// frames and a last frame returns the chunks' rows in arrival order, with
// the last frame's columns and stats.
func TestRunGathersChunkFrames(t *testing.T) {
	chunks := [][][]int64{{{1, 2}, {3, 4}}, {{5, 6}}, {{7, 8}, {9, 10}}}
	var enc [][]byte
	for _, rows := range chunks {
		enc = append(enc, encodeChunk(t, rows))
	}
	addr, served := fakeServer(t, func(conn net.Conn) error {
		var req wire.Request
		if err := wire.ReadFrame(conn, &req); err != nil {
			return err
		}
		for _, data := range enc[:2] {
			if err := wire.WriteFrame(conn, &wire.Response{ID: req.ID, RowsEnc: data, More: true}); err != nil {
				return err
			}
		}
		return wire.WriteFrame(conn, &wire.Response{ID: req.ID, Columns: []string{"x", "y"},
			Stats: &wire.Stats{Workers: 3}, RowsEnc: enc[2]})
	})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Run(context.Background(), "Q(x,y) :- E(x,y)", client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	want := slices.Concat(chunks...)
	if len(res.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(want))
	}
	for i := range want {
		if !slices.Equal(res.Rows[i], want[i]) {
			t.Fatalf("row %d is %v, want %v", i, res.Rows[i], want[i])
		}
	}
	if !slices.Equal(res.Columns, []string{"x", "y"}) || res.Stats.Workers != 3 {
		t.Fatalf("columns %v, workers %d", res.Columns, res.Stats.Workers)
	}
}

// TestCanceledStreamReturnsNoRows: a Run canceled after its answer's first
// chunk arrived waits for the server to end the answer, then returns
// context.Canceled and no rows: the chunk it holds is dropped.
func TestCanceledStreamReturnsNoRows(t *testing.T) {
	streaming := make(chan struct{})
	chunk := encodeChunk(t, [][]int64{{1}, {2}})
	addr, served := fakeServer(t, func(conn net.Conn) error {
		var run, cancel wire.Request
		if err := wire.ReadFrame(conn, &run); err != nil {
			return err
		}
		if err := wire.WriteFrame(conn, &wire.Response{ID: run.ID, RowsEnc: chunk, More: true}); err != nil {
			return err
		}
		close(streaming)
		if err := wire.ReadFrame(conn, &cancel); err != nil {
			return err
		}
		if cancel.Op != wire.OpCancel || cancel.Target != run.ID {
			return fmt.Errorf("after the first chunk the client sent %+v, want a cancel of %d", cancel, run.ID)
		}
		if err := wire.WriteFrame(conn, &wire.Response{ID: run.ID, ErrCode: wire.CodeCanceled, Err: "canceled"}); err != nil {
			return err
		}
		return wire.WriteFrame(conn, &wire.Response{ID: cancel.ID})
	})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-streaming
		cancel()
	}()
	res, err := c.Run(ctx, "Q(x) :- E(x,y)", client.QueryOptions{})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("Run canceled mid-stream returned %v and %+v, want context.Canceled and no result", err, res)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}
