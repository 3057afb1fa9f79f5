package engine

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"parajoin/internal/colbatch"
	"parajoin/internal/rel"
	"parajoin/internal/wire"
)

// TCPTransport is the engine's Transport. An instance hosts one or more
// workers of the cluster: all of them for a single-process cluster
// (NewCluster), one per process for a real deployment. A batch for a
// worker this instance hosts is pushed by reference onto that worker's
// inbox queue; it is neither encoded nor counted as bytes. A batch for a
// worker hosted elsewhere travels as one dictionary-encoded columnar batch
// (an internal/colbatch batch) over a TCP connection dialed lazily, so only
// tuples that change processes pay for the network.
//
// Each (sender-process → receiver-worker-host) connection carries
// internal/wire frames one way: a JSON header {exchange, src, dst, seq,
// close} and, on a data frame, the colbatch batch as the raw payload. The
// transport has the membership link's failure model (DESIGN.md, "Fault
// tolerance"): a sender writes each frame once, and a receiver delivers a
// stream only while its frames arrive complete and in order — data frames
// numbered 1, 2, …, n per (exchange, src, dst), then a close numbered n+1.
// Anything else fails the stream with a retryable ErrTransport: a failed
// dial or write, a skipped or repeated number, a batch that does not
// decode, or a lost connection, which fails at both its ends every run in
// flight up to the newest it carried. A single-round plan keeps no state across
// runs, so the query is simply run again.
type TCPTransport struct {
	n      int
	addrs  []string
	hosted map[int]bool
	transportCounters

	listeners []net.Listener
	acceptWG  sync.WaitGroup

	mu       sync.Mutex
	peers    map[string]*tcpPeer    // peer address -> sending state
	conns    map[net.Conn]struct{}  // every live conn (dialed + accepted)
	inbox    map[inboxKey]*memQueue // receiving state
	epochs   map[int64]*epochTally  // per epoch, queued tuples and received bytes
	recvSeq  map[seqKey]streamState // receiver-side position of each stream
	released map[int64]bool         // recently released epochs (straggler filter)
	relOrder []int64                // insertion order of released, for pruning
	// failBelow is one past the highest epoch a lost connection carried:
	// every unreleased epoch below it has failed.
	failBelow int64
	closed    bool
}

const (
	// tcpDialTimeout bounds each connection attempt.
	tcpDialTimeout = 5 * time.Second
	// tcpWriteTimeout bounds each frame write; a peer that stops draining
	// for longer counts as lost.
	tcpWriteTimeout = 10 * time.Second
)

type inboxKey struct {
	exchange int
	worker   int
}

// seqKey identifies one ordered frame stream: sequence numbers count per
// (exchange, src, dst), however exchanges interleave on a connection.
type seqKey struct {
	exchange int
	src      int
	dst      int
}

// streamState is how far the receiver has admitted one stream.
type streamState struct {
	seq    uint64 // last admitted sequence number
	closed bool   // the close frame was admitted; nothing may follow it
}

// frame is the wire unit, sender→receiver. Data and close frames carry
// Seq; a data frame carries its batch as Col, exactly one encoded colbatch
// batch, sent as the frame's payload.
type frame struct {
	Exchange int    `json:"exchange,omitempty"`
	Src      int    `json:"src,omitempty"`
	Dst      int    `json:"dst,omitempty"`
	Seq      uint64 `json:"seq,omitempty"`
	Close    bool   `json:"close,omitempty"`
	Col      []byte `json:"-"`
}

// Payload and SetPayload implement wire.Payloader over Col.
func (f frame) Payload() []byte      { return f.Col }
func (f *frame) SetPayload(b []byte) { f.Col = b }

// errLinkLost fails the runs in flight on a transport that lost a
// connection: any of their frames may have gone with it.
var errLinkLost = fmt.Errorf("%w: an exchange connection was lost mid-run", ErrTransport)

// tcpPeer is the sending half toward one peer address: the connection and
// the per-stream sequence counters. mu serializes senders and is held
// across a dial and a frame write.
type tcpPeer struct {
	t    *TCPTransport
	addr string

	mu      sync.Mutex
	c       net.Conn
	upTo    int64 // one past the highest epoch written on c
	nextSeq map[seqKey]uint64
}

// tcpDialHook, when set, runs between a successful dial and the
// registration of the new connection — a test seam for racing Close
// against an in-flight dial.
var tcpDialHook func()

// NewTCPTransport starts a transport hosting the given workers. addrs[i] is
// worker i's listen address; hosted workers are bound immediately (pass
// port 0 addresses to let the OS pick — see Addrs). Every worker of the
// cluster must be hosted by exactly one process.
func NewTCPTransport(addrs []string, hosted []int) (*TCPTransport, error) {
	for _, w := range hosted {
		if w < 0 || w >= len(addrs) {
			return nil, fmt.Errorf("engine: hosted worker %d out of range", w)
		}
	}
	t := newTransport(addrs, hosted)
	t.listeners = make([]net.Listener, t.n)
	for _, w := range hosted {
		l, err := net.Listen("tcp", t.addrs[w])
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("engine: listen for worker %d: %w", w, err)
		}
		t.listeners[w] = l
		t.addrs[w] = l.Addr().String()
		t.acceptWG.Add(1)
		go t.acceptLoop(l)
	}
	return t, nil
}

// newTransport builds a transport for len(addrs) workers that hosts the
// given ones and listens for none. NewCluster uses it as is: with every
// worker hosted, no batch needs a socket.
func newTransport(addrs []string, hosted []int) *TCPTransport {
	t := &TCPTransport{
		n:        len(addrs),
		addrs:    append([]string(nil), addrs...),
		hosted:   make(map[int]bool, len(hosted)),
		peers:    make(map[string]*tcpPeer),
		conns:    make(map[net.Conn]struct{}),
		inbox:    make(map[inboxKey]*memQueue),
		epochs:   make(map[int64]*epochTally),
		recvSeq:  make(map[seqKey]streamState),
		released: make(map[int64]bool),
	}
	for _, w := range hosted {
		t.hosted[w] = true
	}
	return t
}

// Addrs returns the resolved listen addresses (useful with ":0" listeners).
func (t *TCPTransport) Addrs() []string {
	return append([]string(nil), t.addrs...)
}

// SetPeerAddrs updates the worker address table — used in multi-process
// deployments where peers bind OS-assigned ports after this transport was
// created. Call before the first Send; addresses of workers hosted here are
// left untouched.
func (t *TCPTransport) SetPeerAddrs(addrs []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, a := range addrs {
		if i < len(t.addrs) && !t.hosted[i] {
			t.addrs[i] = a
		}
	}
}

func (t *TCPTransport) acceptLoop(l net.Listener) {
	defer t.acceptWG.Done()
	for {
		c, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			c.Close()
			return
		}
		t.conns[c] = struct{}{}
		t.mu.Unlock()
		go t.readLoop(c)
	}
}

// countReader and countWriter meter the wire: every byte read from or
// written to a peer connection lands in the transport's counters, frame
// length words and headers included, so sent and received byte totals
// agree exactly.
type countReader struct {
	c   net.Conn
	ctr *transportCounters
}

func (r countReader) Read(p []byte) (int, error) {
	n, err := r.c.Read(p)
	if n > 0 {
		r.ctr.countReceived(0, int64(n))
	}
	return n, err
}

type countWriter struct {
	c   net.Conn
	ctr *transportCounters
}

func (w countWriter) Write(p []byte) (int, error) {
	n, err := w.c.Write(p)
	if n > 0 {
		w.ctr.countSent(0, int64(n))
	}
	return n, err
}

// readLoop is the receiving half of one accepted connection: it admits
// frames in sequence and queues their batches. A batch that does not decode
// fails its stream and drops the connection, whose bytes are suspect from
// then on.
func (t *TCPTransport) readLoop(c net.Conn) {
	r := &frameReader{r: bufio.NewReader(countReader{c: c, ctr: &t.transportCounters})}
	var upTo int64 // one past the highest epoch read off c
	defer func() { t.lose(c, upTo) }()
	for {
		var f frame
		start := r.n
		if err := wire.ReadFrame(r, &f); err != nil {
			return
		}
		upTo = max(upTo, wireEpoch(f.Exchange)+1)
		q := t.admit(&f, r.n-start)
		if q == nil {
			continue
		}
		if f.Close {
			q.closeOne()
			continue
		}
		cb, err := colbatch.Decode(f.Col)
		if err != nil {
			q.fail(fmt.Errorf("%w: exchange %d stream %d→%d: %v", ErrTransport, f.Exchange, f.Src, f.Dst, err))
			return
		}
		t.countReceived(1, 0)
		q.push(rel.BatchOf(cb.Cols(), cb.Rows(), cb.Values()))
	}
}

// frameReader counts the bytes read through it, so readLoop can size each
// frame it reads.
type frameReader struct {
	r io.Reader
	n int64
}

func (r *frameReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	r.n += int64(n)
	return n, err
}

// admit checks one incoming frame of size bytes against its stream's
// position, counts its bytes to its epoch unless that epoch was released,
// and returns the inbox queue the frame belongs to, or nil for a frame to
// drop:
// a straggler of a released epoch, a frame of a queue that has failed, or
// a frame out of sequence — a skipped or repeated number, or anything after
// the close — which fails its queue. The connection stays up: the frames
// behind it may belong to other runs. The queue is found or created in the
// same lock hold as the released check, so a concurrent ReleaseEpoch either
// frees it or is seen by the check; a queue created between the two would
// be one that nothing ever reads.
func (t *TCPTransport) admit(f *frame, size int64) *memQueue {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.released[wireEpoch(f.Exchange)] {
		live.netStragglerFrames.Add(1)
		return nil
	}
	t.epochLocked(wireEpoch(f.Exchange)).bytesReceived += size
	q := t.queueLocked(f.Exchange, f.Dst)
	if q.failed() {
		return nil
	}
	k := seqKey{f.Exchange, f.Src, f.Dst}
	s := t.recvSeq[k]
	if s.closed || f.Seq != s.seq+1 {
		q.fail(fmt.Errorf("%w: exchange %d stream %d→%d: frame %d after %d (closed %t)",
			ErrTransport, f.Exchange, f.Src, f.Dst, f.Seq, s.seq, s.closed))
		return nil
	}
	t.recvSeq[k] = streamState{seq: f.Seq, closed: f.Close}
	return q
}

// route resolves where the exchange's frames for worker dst go: dst's
// inbox queue when this transport hosts it, else the sending state toward
// dst's address. Epochs are single-use, so an exchange of a released epoch
// fails with a retryable ErrTransport. As in admit, the check shares a
// lock hold with the queue lookup, so a queue ReleaseEpoch freed is never
// re-created.
func (t *TCPTransport) route(exchange, dst int) (*memQueue, *tcpPeer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if epoch := wireEpoch(exchange); t.released[epoch] {
		return nil, nil, fmt.Errorf("%w: epoch %d was already released", ErrTransport, epoch)
	}
	if t.hosted[dst] {
		return t.queueLocked(exchange, dst), nil, nil
	}
	if t.closed {
		return nil, nil, fmt.Errorf("engine: transport closed")
	}
	return nil, t.peerLocked(t.addrs[dst]), nil
}

// queueLocked returns (creating if needed) one inbox queue. A queue of an
// epoch a lost connection carried is created failed. Callers hold t.mu.
func (t *TCPTransport) queueLocked(exchange, worker int) *memQueue {
	k := inboxKey{exchange, worker}
	q, ok := t.inbox[k]
	if !ok {
		epoch := wireEpoch(exchange)
		q = newMemQueue(t.n, &t.transportCounters, &t.epochLocked(epoch).queued[worker])
		if epoch < t.failBelow {
			q.err = errLinkLost
		}
		t.inbox[k] = q
	}
	return q
}

// epochTally is what the transport counts per run: each worker's queued
// tuples and received batches, and the bytes of the frames received for
// the run.
type epochTally struct {
	queued        []queueGauge
	bytesReceived int64 // guarded by the transport's mu
}

// epochLocked returns (creating if needed) one epoch's tally. Callers hold
// t.mu.
func (t *TCPTransport) epochLocked(epoch int64) *epochTally {
	e := t.epochs[epoch]
	if e == nil {
		e = &epochTally{queued: make([]queueGauge, t.n)}
		t.epochs[epoch] = e
	}
	return e
}

// peerLocked returns (creating if needed) the sending state for a peer
// address. Callers hold t.mu.
func (t *TCPTransport) peerLocked(addr string) *tcpPeer {
	p, ok := t.peers[addr]
	if !ok {
		p = &tcpPeer{t: t, addr: addr, nextSeq: make(map[seqKey]uint64)}
		t.peers[addr] = p
	}
	return p
}

// send numbers f within its stream and writes it once, dialing first if
// the peer has no connection. A failed dial or write fails with
// ErrTransport, and a failed write loses the connection: the receiver can
// no longer see the stream whole, so the run is retried instead of
// repaired.
func (p *tcpPeer) send(f *frame) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := seqKey{f.Exchange, f.Src, f.Dst}
	p.nextSeq[k]++
	f.Seq = p.nextSeq[k]
	if p.c == nil {
		if err := p.dialLocked(); err != nil {
			return err
		}
	}
	p.upTo = max(p.upTo, wireEpoch(f.Exchange)+1)
	p.c.SetWriteDeadline(time.Now().Add(tcpWriteTimeout))
	if err := wire.WriteFrame(countWriter{c: p.c, ctr: &p.t.transportCounters}, f); err != nil {
		p.loseLocked()
		return p.t.lostErr(fmt.Errorf("%w: write to %s: %v", ErrTransport, p.addr, err))
	}
	return nil
}

// dialLocked connects to the peer, registers the connection (unless the
// transport closed meanwhile — the close-during-dial leak fix) and starts
// its watcher. Callers hold p.mu.
func (p *tcpPeer) dialLocked() error {
	t := p.t
	c, err := net.DialTimeout("tcp", p.addr, tcpDialTimeout)
	if err != nil {
		return t.lostErr(fmt.Errorf("%w: dial %s: %v", ErrTransport, p.addr, err))
	}
	if tcpDialHook != nil {
		tcpDialHook()
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return fmt.Errorf("engine: transport closed")
	}
	t.conns[c] = struct{}{}
	t.mu.Unlock()
	p.c, p.upTo = c, 0
	go p.watch(c)
	return nil
}

// watch waits for a dialed connection to end and loses it, so a
// connection that dies while idle is dialed afresh by the next frame
// instead of failing it. Nothing is ever written back, so the read only
// returns when the connection ends.
func (p *tcpPeer) watch(c net.Conn) {
	io.Copy(io.Discard, c)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.c == c {
		p.loseLocked()
	}
}

// loseLocked loses the peer's connection. Callers hold p.mu.
func (p *tcpPeer) loseLocked() {
	p.t.lose(p.c, p.upTo)
	p.c = nil
}

// lose closes a connection that ended or failed, in either direction, and
// fails every unreleased epoch below upTo, one past the highest epoch the
// connection carried: which of their frames it took with it is unknown,
// and a single-round run is cheaper to re-run than to repair. Only the
// first call for a connection counts, and Close forgets every connection
// first, so a closing transport fails no run this way.
func (t *TCPTransport) lose(c net.Conn, upTo int64) {
	c.Close()
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.conns[c]; !ok {
		return
	}
	delete(t.conns, c)
	t.failBelow = max(t.failBelow, upTo)
	for k, q := range t.inbox {
		if wireEpoch(k.exchange) < upTo {
			q.fail(errLinkLost)
		}
	}
}

// lostErr returns err, unless the transport was closed: a run that a Close
// cut off fails terminally, not retryably.
func (t *TCPTransport) lostErr(err error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("engine: transport closed")
	}
	return err
}

// Send implements Transport. A batch for a hosted worker is queued by
// reference; only a batch for a worker hosted elsewhere is encoded and
// written to a connection.
func (t *TCPTransport) Send(ctx context.Context, exchangeID, src, dst int, batch rel.Batch) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	q, p, err := t.route(exchangeID, dst)
	if err != nil {
		return err
	}
	t.countSent(1, 0) // wire bytes are counted by the connection's countWriter
	if q != nil {
		t.countReceived(1, 0)
		q.push(batch)
		return nil
	}
	enc, err := encodeBatch(batch)
	if err != nil {
		return fmt.Errorf("%w: encode batch: %v", ErrTransport, err)
	}
	return p.send(&frame{Exchange: exchangeID, Src: src, Dst: dst, Col: enc})
}

// CloseSend implements Transport. A hosted worker's queue is closed
// directly; a close frame to another process carries the stream's next
// sequence number, so the receiver can tell a complete stream from one
// that lost frames.
func (t *TCPTransport) CloseSend(ctx context.Context, exchangeID, src int) error {
	var firstErr error
	for dst := 0; dst < t.n; dst++ {
		q, p, err := t.route(exchangeID, dst)
		switch {
		case err != nil:
		case q != nil:
			q.closeOne()
		default:
			err = p.send(&frame{Exchange: exchangeID, Src: src, Dst: dst, Close: true})
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Recv implements Transport. Only hosted workers may receive.
func (t *TCPTransport) Recv(ctx context.Context, exchangeID, dst int) (rel.Batch, bool, error) {
	if !t.hosted[dst] {
		return rel.Batch{}, false, fmt.Errorf("engine: worker %d is not hosted by this transport", dst)
	}
	q, _, err := t.route(exchangeID, dst)
	if err != nil {
		return rel.Batch{}, false, err
	}
	// An already-queued batch needs no wake-up on cancellation, so only a
	// Recv that has to wait registers one.
	b, ok, ready, err := q.tryPop()
	if !ready {
		stop := context.AfterFunc(ctx, func() { q.cond.Broadcast() })
		defer stop()
		b, ok, err = q.pop(ctx.Done())
	}
	if err != nil {
		return rel.Batch{}, false, recvErr(ctx, err)
	}
	return b, ok, nil
}

// releasedEpochMemory bounds the straggler filter: remembering this many
// released epochs is far more than any in-flight frame can lag behind.
const releasedEpochMemory = 256

// ReleaseEpoch implements Transport: it frees the inbox queues, stream
// positions, and sender-side sequence state of a finished run, and
// remembers the epoch so straggler frames still in flight are dropped on
// arrival instead of resurrecting queues nothing will read, and a local
// Send, CloseSend or Recv on it fails.
func (t *TCPTransport) ReleaseEpoch(epoch int64) ([]int64, int64, int64) {
	t.mu.Lock()
	peaks := make([]int64, t.n)
	var bytes, batches int64
	if e := t.epochs[epoch]; e != nil {
		for w := range e.queued {
			peaks[w] = e.queued[w].peak.Load()
			batches += e.queued[w].batches.Load()
		}
		bytes = e.bytesReceived
	}
	delete(t.epochs, epoch)
	for k, q := range t.inbox {
		if wireEpoch(k.exchange) != epoch {
			continue
		}
		q.mu.Lock()
		for range q.batches {
			q.ctr.dequeued()
		}
		q.batches = nil
		q.mu.Unlock()
		delete(t.inbox, k)
	}
	for k := range t.recvSeq {
		if wireEpoch(k.exchange) == epoch {
			delete(t.recvSeq, k)
		}
	}
	if !t.released[epoch] {
		t.released[epoch] = true
		t.relOrder = append(t.relOrder, epoch)
		for len(t.relOrder) > releasedEpochMemory {
			delete(t.released, t.relOrder[0])
			t.relOrder = t.relOrder[1:]
		}
	}
	peers := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()
	for _, p := range peers {
		p.mu.Lock()
		for k := range p.nextSeq {
			if wireEpoch(k.exchange) == epoch {
				delete(p.nextSeq, k)
			}
		}
		p.mu.Unlock()
	}
	return peaks, bytes, batches
}

// QueueCount reports the number of live inbox queues — introspection for
// leak checks: after every run has finished and released its epoch it
// should be zero.
func (t *TCPTransport) QueueCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.inbox)
}

// KillConnections abruptly closes every live TCP connection — dialed and
// accepted — simulating a network partition or peer restart: both ends of
// each connection fail the runs in flight on their transport, and the next
// frame dials afresh. It returns the number of
// connections killed. Chaos tooling; safe any time.
func (t *TCPTransport) KillConnections() int {
	t.mu.Lock()
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return len(conns)
}

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.conns = map[net.Conn]struct{}{}
	for _, q := range t.inbox {
		q.cond.Broadcast()
	}
	t.mu.Unlock()
	for _, l := range t.listeners {
		if l != nil {
			l.Close()
		}
	}
	for _, c := range conns {
		c.Close()
	}
	t.acceptWG.Wait()
	return nil
}
