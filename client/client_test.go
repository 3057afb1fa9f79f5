package client_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"parajoin/client"
	"parajoin/internal/wire"
)

// wantRequestBytes is every byte the client writes for a Ping, then a Run
// canceled mid-flight: the protocol version on the first request only,
// request IDs 1, 2, 3 in order, and a cancel naming the Run's ID as its
// target.
const wantRequestBytes = "\x00\x00\x00\x1e{\"id\":1,\"op\":\"ping\",\"proto\":5}" +
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
