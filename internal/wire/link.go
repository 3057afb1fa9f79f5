package wire

import (
	"errors"
	"net"
	"sync"
	"time"
)

// Frame is a frame a Link routes by its request ID. RequestID returns the
// ID's address, so Send can stamp a request and the reader can read a
// reply's.
type Frame interface{ RequestID() *uint64 }

// RequestID implements Frame.
func (r *Request) RequestID() *uint64  { return &r.ID }
func (r *Response) RequestID() *uint64 { return &r.ID }

// Handler receives the frames answering one request, or the error that
// ends it instead (f is then nil). It must not block or call its Link.
type Handler[F any] func(f *F, err error)

// LinkConfig holds what differs between a Link's users.
type LinkConfig[F any] struct {
	// WriteTimeout bounds each frame write; 0 waits indefinitely.
	WriteTimeout time.Duration
	// Last reports whether a reply ends its request; nil means every
	// reply does.
	Last func(*F) bool
	// Stray receives each frame no open request claims. A non-nil error
	// ends the link with that cause; a nil Stray drops such frames.
	Stray func(*F) error
	// Failed turns a cause, the link's end or a frame over MaxFrame, into
	// the error a handler gets.
	Failed func(cause error) error
}

// Link multiplexes requests over one framed connection: one write lock, one
// reader goroutine that routes each reply by request ID to its request's
// handler, and one failure path. F is the frame type the peer answers with;
// *F must implement Frame.
//
// Every request finishes exactly once: its handler leaves the table under
// the lock before its last call, whether that call carries its last reply
// or the link's end, and a request its caller forgets never reaches its
// handler again. A failed write closes the connection, so the reader fails
// that request along with every other open one, and every handler call for
// a written request runs on the reader. A frame over MaxFrame has written
// nothing; Send fails only its own request.
type Link[F any] struct {
	conn net.Conn
	cfg  LinkConfig[F]
	wmu  sync.Mutex // serializes frame writes

	mu      sync.Mutex
	next    uint64
	pending map[uint64]Handler[F]
	err     error         // set once the link has ended
	done    chan struct{} // closed when the reader has failed every request
}

// NewLink starts the reader of a link over conn.
func NewLink[F any](conn net.Conn, cfg LinkConfig[F]) *Link[F] {
	l := &Link[F]{conn: conn, cfg: cfg, pending: make(map[uint64]Handler[F]), done: make(chan struct{})}
	go l.read()
	return l
}

// Send stamps f with a fresh request ID, registers h for the replies, and
// writes f. It returns the ID and reports every failure through h: at
// once if the link has already ended.
func (l *Link[F]) Send(f Frame, h Handler[F]) uint64 {
	l.mu.Lock()
	if err := l.err; err != nil {
		l.mu.Unlock()
		h(nil, err)
		return 0
	}
	l.next++
	id := l.next
	l.pending[id] = h
	l.mu.Unlock()
	*f.RequestID() = id
	if err := l.Reserve()(f); errors.Is(err, ErrFrameTooLarge) && l.Forget(id) {
		h(nil, l.cfg.Failed(err))
	}
	return id
}

// Forget takes request id out of the table, for a caller that stops
// waiting for it. Its handler is not called again, and a reply that
// arrives later goes to Stray. Forget reports whether the request was
// still open.
func (l *Link[F]) Forget(id uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, open := l.pending[id]
	delete(l.pending, id)
	return open
}

// Reserve takes the write lock and returns the function that writes one
// frame under it and releases it, so a frame written through it goes ahead
// of every Send that starts meanwhile; l.Reserve()(f) writes one frame
// outside any request. A failed write, other than one over MaxFrame,
// closes the connection.
func (l *Link[F]) Reserve() func(f any) error {
	l.wmu.Lock()
	return func(f any) error {
		defer l.wmu.Unlock()
		if l.cfg.WriteTimeout > 0 {
			l.conn.SetWriteDeadline(time.Now().Add(l.cfg.WriteTimeout))
		}
		err := WriteFrame(l.conn, f)
		if err != nil && !errors.Is(err, ErrFrameTooLarge) {
			l.conn.Close()
		}
		return err
	}
}

// Close closes the connection and returns once every open request has
// failed.
func (l *Link[F]) Close() error {
	err := l.conn.Close()
	<-l.done
	return err
}

// Done is closed once the link has ended and every open request has failed.
func (l *Link[F]) Done() <-chan struct{} { return l.done }

// Err waits until the link has ended and reports why.
func (l *Link[F]) Err() error { <-l.done; return l.err }

// read routes frames until the connection fails or Stray ends the link,
// then fails every open request.
func (l *Link[F]) read() {
	var cause error
	for cause == nil {
		f := new(F)
		if cause = ReadFrame(l.conn, f); cause != nil {
			break
		}
		id, last := *any(f).(Frame).RequestID(), l.cfg.Last == nil || l.cfg.Last(f)
		l.mu.Lock()
		h := l.pending[id]
		if h != nil && last {
			delete(l.pending, id)
		}
		l.mu.Unlock()
		switch {
		case h != nil:
			h(f, nil)
		case l.cfg.Stray != nil:
			cause = l.cfg.Stray(f)
		}
	}
	err := l.cfg.Failed(cause)
	l.mu.Lock()
	pending := l.pending
	l.err, l.pending = err, nil
	l.mu.Unlock()
	for _, h := range pending {
		h(nil, err)
	}
	close(l.done)
}
