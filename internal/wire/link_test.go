package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var (
	errLinkDown = errors.New("link down")
	errBye      = errors.New("peer said bye")
)

// linkPair connects a Link over loopback to a peer that runs serve on its
// end of the connection. wrap, if set, wraps the Link's end.
func linkPair(t *testing.T, cfg LinkConfig[Response], wrap func(net.Conn) net.Conn, serve func(net.Conn)) *Link[Response] {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		defer conn.Close()
		serve(conn)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		conn = wrap(conn)
	}
	if cfg.Failed == nil {
		cfg.Failed = func(cause error) error { return fmt.Errorf("%w: %w", errLinkDown, cause) }
	}
	l := NewLink(conn, cfg)
	t.Cleanup(func() { l.Close() })
	return l
}

// answerAll answers every request with an empty response of its ID.
func answerAll(conn net.Conn) {
	for {
		req := new(Request)
		if ReadFrame(conn, req) != nil {
			return
		}
		if WriteFrame(conn, &Response{ID: req.ID}) != nil {
			return
		}
	}
}

// outcome records every call of a request's handler.
type outcome struct {
	calls atomic.Int32
	res   chan *Response
	err   chan error
}

// newOutcome's channels hold a few calls, so a handler called more often
// than it should be never blocks the reader and the test can count it.
func newOutcome() *outcome {
	return &outcome{res: make(chan *Response, 4), err: make(chan error, 4)}
}

func (o *outcome) handle(r *Response, err error) {
	o.calls.Add(1)
	if err != nil {
		o.err <- err
	} else {
		o.res <- r
	}
}

func (o *outcome) wantErr(t *testing.T) error {
	t.Helper()
	select {
	case err := <-o.err:
		return err
	case r := <-o.res:
		t.Fatalf("handler got response %+v, want an error", r)
	case <-time.After(5 * time.Second):
		t.Fatal("handler not called within 5s")
	}
	return nil
}

func (o *outcome) wantResponse(t *testing.T) *Response {
	t.Helper()
	select {
	case r := <-o.res:
		return r
	case err := <-o.err:
		t.Fatalf("handler got %v, want a response", err)
	case <-time.After(5 * time.Second):
		t.Fatal("handler not called within 5s")
	}
	return nil
}

// lossyConn fails its first write: it closes the socket, waits until its
// reader has seen the close and the link has ended, and only then returns
// the write's error, so the write failure and the reader's fail-all both
// see the request.
type lossyConn struct {
	net.Conn
	once       sync.Once
	readFailed chan struct{}
	ended      func() <-chan struct{}
}

func (c *lossyConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		c.once.Do(func() { close(c.readFailed) })
	}
	return n, err
}

func (c *lossyConn) Write(p []byte) (int, error) {
	c.Conn.Close()
	<-c.readFailed
	<-c.ended()
	return 0, errors.New("injected write failure")
}

func TestLinkWriteFailureRacingReaderFinishesOnce(t *testing.T) {
	var l *Link[Response]
	lossy := &lossyConn{readFailed: make(chan struct{})}
	lossy.ended = func() <-chan struct{} { return l.Done() }
	l = linkPair(t, LinkConfig[Response]{}, func(c net.Conn) net.Conn { lossy.Conn = c; return lossy }, answerAll)
	o := newOutcome()
	l.Send(&Request{Op: OpPing}, o.handle)
	if err := o.wantErr(t); !errors.Is(err, errLinkDown) {
		t.Fatalf("handler got %v, want the link's failure", err)
	}
	if n := o.calls.Load(); n != 1 {
		t.Fatalf("handler called %d times, want once", n)
	}
}

// bigRequest is a request whose payload is raw bytes.
type bigRequest struct {
	ID   uint64 `json:"id"`
	Data []byte `json:"-"`
}

func (r *bigRequest) RequestID() *uint64 { return &r.ID }
func (r bigRequest) Payload() []byte     { return r.Data }

func TestLinkOversizedFrameFailsOnlyItsRequest(t *testing.T) {
	l := linkPair(t, LinkConfig[Response]{}, nil, answerAll)
	big := newOutcome()
	l.Send(&bigRequest{Data: make([]byte, MaxFrame)}, big.handle)
	if err := big.wantErr(t); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized request failed with %v, want ErrFrameTooLarge", err)
	}
	next := newOutcome()
	id := l.Send(&Request{Op: OpPing}, next.handle)
	if r := next.wantResponse(t); r.ID != id {
		t.Fatalf("answer carries ID %d, want %d", r.ID, id)
	}
	select {
	case <-l.Done():
		t.Fatalf("link ended after an oversized frame: %v", l.Err())
	default:
	}
	if n := big.calls.Load(); n != 1 {
		t.Fatalf("oversized request's handler called %d times, want once", n)
	}
}

func TestLinkForgottenRequestsLateReplyIsStray(t *testing.T) {
	release := make(chan struct{})
	stray := make(chan *Response, 1)
	cfg := LinkConfig[Response]{Stray: func(r *Response) error { stray <- r; return nil }}
	l := linkPair(t, cfg, nil, func(conn net.Conn) {
		req := new(Request)
		if ReadFrame(conn, req) != nil {
			return
		}
		<-release
		WriteFrame(conn, &Response{ID: req.ID})
	})
	o := newOutcome()
	id := l.Send(&Request{Op: OpPing}, o.handle)
	if !l.Forget(id) {
		t.Fatal("Forget found the unanswered request closed")
	}
	if l.Forget(id) {
		t.Fatal("a second Forget found the request open")
	}
	close(release)
	select {
	case r := <-stray:
		if r.ID != id {
			t.Fatalf("stray frame carries ID %d, want %d", r.ID, id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("late reply never reached Stray")
	}
	if n := o.calls.Load(); n != 0 {
		t.Fatalf("forgotten request's handler called %d times, want never", n)
	}
}

func TestLinkStrayErrorEndsTheLink(t *testing.T) {
	cfg := LinkConfig[Response]{Stray: func(r *Response) error {
		if r.ErrCode == "bye" {
			return errBye
		}
		return nil
	}}
	l := linkPair(t, cfg, nil, func(conn net.Conn) {
		for {
			req := new(Request)
			if ReadFrame(conn, req) != nil {
				return
			}
			if req.Op == OpCancel {
				WriteFrame(conn, &Response{ErrCode: "bye"})
			}
		}
	})
	open := []*outcome{newOutcome(), newOutcome(), newOutcome()}
	for _, o := range open[:2] {
		l.Send(&Request{Op: OpRun}, o.handle)
	}
	l.Send(&Request{Op: OpCancel}, open[2].handle)
	for i, o := range open {
		if err := o.wantErr(t); !errors.Is(err, errBye) || !errors.Is(err, errLinkDown) {
			t.Fatalf("open request %d got %v, want the link's failure caused by the stray frame", i, err)
		}
	}
	<-l.Done()
	if err := l.Err(); !errors.Is(err, errBye) {
		t.Fatalf("link ended with %v, want the stray cause", err)
	}
}

func TestLinkSendAfterFailureFailsAtOnce(t *testing.T) {
	l := linkPair(t, LinkConfig[Response]{}, nil, func(net.Conn) {})
	<-l.Done()
	var (
		calls int
		got   error
	)
	if id := l.Send(&Request{Op: OpPing}, func(r *Response, err error) { calls++; got = err }); id != 0 {
		t.Fatalf("Send on an ended link returned ID %d", id)
	}
	if calls != 1 || got == nil || got != l.Err() {
		t.Fatalf("handler called %d times with %v before Send returned, want once with Err() = %v", calls, got, l.Err())
	}
}

// TestLinkChunkedAnswerEndsOnLastFrame: with Last reporting !More, as the
// client configures it, each request's handler gets every frame of its
// streamed answer in order while the frames of two answers interleave, and
// each request leaves the table on its frame with More unset.
func TestLinkChunkedAnswerEndsOnLastFrame(t *testing.T) {
	l := linkPair(t, LinkConfig[Response]{Last: func(r *Response) bool { return !r.More }}, nil, func(conn net.Conn) {
		var a, b Request
		if ReadFrame(conn, &a) != nil || ReadFrame(conn, &b) != nil {
			return
		}
		for _, f := range []*Response{
			{ID: a.ID, Count: 1, More: true}, {ID: b.ID, Count: 1, More: true},
			{ID: a.ID, Count: 2, More: true}, {ID: b.ID, Count: 2}, {ID: a.ID, Count: 3},
		} {
			if WriteFrame(conn, f) != nil {
				return
			}
		}
		answerAll(conn)
	})
	oa, ob := newOutcome(), newOutcome()
	l.Send(&Request{Op: OpRun}, oa.handle)
	l.Send(&Request{Op: OpRun}, ob.handle)
	for _, o := range []struct {
		name   string
		out    *outcome
		frames int64
	}{{"a", oa, 3}, {"b", ob, 2}} {
		for i := int64(1); i <= o.frames; i++ {
			if r := o.out.wantResponse(t); r.Count != i || r.More != (i < o.frames) {
				t.Fatalf("answer %s frame %d: count %d, more %v", o.name, i, r.Count, r.More)
			}
		}
	}
	l.mu.Lock()
	open := len(l.pending)
	l.mu.Unlock()
	if open != 0 {
		t.Fatalf("%d requests still open after their last frames", open)
	}
}
