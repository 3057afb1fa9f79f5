package engine

import (
	"context"
	"encoding/gob"
	"expvar"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"parajoin/internal/colbatch"
	"parajoin/internal/rel"
)

// TCPTransport is the engine's Transport. An instance hosts one or more
// workers of the cluster: all of them for a single-process cluster
// (NewCluster), one per process for a real deployment. A batch for a
// worker this instance hosts is pushed by reference onto that worker's
// inbox queue; it is neither encoded nor counted as bytes. A batch for a
// worker hosted elsewhere travels as one dictionary-encoded columnar batch
// (an internal/colbatch frame, gob-framed) over a TCP connection dialed
// lazily, so only tuples that change processes pay for the network.
//
// Framing is one gob stream per (sender-process → receiver-worker-host)
// connection carrying frames of the form {Exchange, Src, Dst, Seq, Close,
// Col}, where Col is one encoded colbatch batch. The transport is
// self-healing: every data frame carries a per-(exchange, src, dst)
// sequence number and stays buffered on the sender until the receiver
// acknowledges it on the reverse direction of the same connection. When a
// write fails (or a dial breaks), the sender redials with exponential
// backoff and seeded jitter, replays its unacknowledged frames in order,
// and continues; the receiver drops the duplicates its
// acks didn't reach the sender in time to prevent. A run therefore
// survives any connection loss the redial budget covers, exactly once —
// and when the budget runs out, the failure surfaces as a typed
// ErrTransport the query-level recovery can retry.
type TCPTransport struct {
	n      int
	addrs  []string
	hosted map[int]bool
	transportCounters

	listeners []net.Listener
	acceptWG  sync.WaitGroup
	closeCh   chan struct{}

	mu       sync.Mutex
	peers    map[string]*tcpPeer    // peer address -> sending state
	conns    map[net.Conn]struct{}  // every live conn (dialed + accepted)
	inbox    map[inboxKey]*memQueue // receiving state
	recvSeq  map[seqKey]uint64      // receiver-side dedup high-water marks
	released map[int64]bool         // recently released epochs (straggler filter)
	relOrder []int64                // insertion order of released, for pruning
	closed   bool
}

// Self-healing parameters. Recovery beyond this budget belongs to the
// serving layer, which re-runs the query from base relations.
const (
	// tcpDialTimeout bounds each connection attempt.
	tcpDialTimeout = 5 * time.Second
	// tcpWriteTimeout bounds each frame write; a peer that stops draining
	// for longer counts as failed and triggers a redial.
	tcpWriteTimeout = 10 * time.Second
	// tcpMaxRedials is how many reconnect-and-resend cycles one Send may
	// burn through before failing with ErrTransport.
	tcpMaxRedials = 4
	// tcpRedialBackoff is the delay before the first redial, doubling each
	// attempt (capped at 2s) with ±50% jitter from the peer's seeded stream.
	tcpRedialBackoff = 25 * time.Millisecond
)

type inboxKey struct {
	exchange int
	worker   int
}

// seqKey identifies one ordered frame stream: sequence numbers count per
// (exchange, src, dst), so resends are idempotent per stream no matter how
// exchanges interleave on the shared connection.
type seqKey struct {
	exchange int
	src      int
	dst      int
}

// frame is the wire unit. Data and close frames flow sender→receiver and
// carry Seq; ack frames flow back on the same connection (Ack set, Seq the
// acknowledged number). A data frame carries its batch as Col, exactly one
// encoded colbatch batch.
type frame struct {
	Exchange int
	Src      int
	Dst      int
	Seq      uint64
	Close    bool
	Ack      bool
	Col      []byte
}

// tcpPeer is the sending half toward one peer address: the connection, the
// per-stream sequence counters, and the unacknowledged frame buffer the
// resend path replays.
//
// Two mutexes, ordered mu → ackMu: mu serializes senders (and is held
// across a blocking frame write), while ackMu guards only the unacked
// buffer, so the ack reader trims it promptly even while a send is blocked
// on a slow peer.
type tcpPeer struct {
	t    *TCPTransport
	addr string

	mu         sync.Mutex
	c          net.Conn
	enc        *gob.Encoder
	nextSeq    map[seqKey]uint64
	dialed     int64 // successful dials
	reconnects int64 // successful dials after the first
	lastErr    string
	jitter     uint64 // splitmix64 state for backoff jitter

	ackMu   sync.Mutex
	unacked []frame
	lastOK  time.Time
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
	registerTCP(t)
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
		closeCh:  make(chan struct{}),
		peers:    make(map[string]*tcpPeer),
		conns:    make(map[net.Conn]struct{}),
		inbox:    make(map[inboxKey]*memQueue),
		recvSeq:  make(map[seqKey]uint64),
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
// written to a peer connection lands in the transport's counters, gob
// framing and type descriptors included. Ack frames travel outside these
// (plain encoders on the reverse direction), so the data direction's sent
// and received byte totals stay exactly equal.
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

// readLoop is the receiving half of one accepted connection: it decodes
// data frames (counted), deduplicates by sequence number, and answers with
// ack frames on the reverse direction (uncounted).
func (t *TCPTransport) readLoop(c net.Conn) {
	dec := gob.NewDecoder(countReader{c: c, ctr: &t.transportCounters})
	enc := gob.NewEncoder(c) // acks; this loop is the only writer
	defer func() {
		c.Close()
		t.mu.Lock()
		delete(t.conns, c)
		t.mu.Unlock()
	}()
	for {
		var f frame
		if err := dec.Decode(&f); err != nil {
			return
		}
		// Decode a data frame's batch before admitting or acking: a corrupt
		// batch (checksum or bounds failure) must not bump the dedup
		// high-water mark or trim the sender's replay buffer. Dropping the
		// connection instead makes the sender redial and resend the frame,
		// the same repair path as a lost write.
		var batch []rel.Tuple
		if !f.Close {
			cb, err := colbatch.Decode(f.Col)
			if err != nil {
				return
			}
			batch = cb.Tuples()
		}
		q, dup := t.admit(&f)
		if f.Seq > 0 {
			// Ack duplicates too: the original ack may be what got lost.
			c.SetWriteDeadline(time.Now().Add(tcpWriteTimeout))
			if enc.Encode(frame{Exchange: f.Exchange, Src: f.Src, Dst: f.Dst, Seq: f.Seq, Ack: true}) != nil {
				return
			}
		}
		if dup {
			live.netDupFramesDropped.Add(1)
			continue
		}
		if q == nil {
			// Straggler for a finished run: drop instead of resurrecting its
			// queues.
			live.netStragglerFrames.Add(1)
			continue
		}
		if f.Close {
			q.closeOne()
			continue
		}
		t.countReceived(1, 0)
		q.push(batch)
	}
}

// admit checks one incoming data/close frame against the dedup high-water
// mark and the released-epoch filter, and returns the inbox queue the frame
// belongs to — nil for a duplicate or a straggler of a released epoch. The
// queue is found or created in the same lock hold as the released check, so
// a concurrent ReleaseEpoch either frees it or is seen by the check; a queue
// created between the two would be one that nothing ever reads.
func (t *TCPTransport) admit(f *frame) (q *memQueue, dup bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f.Seq > 0 {
		k := seqKey{f.Exchange, f.Src, f.Dst}
		if f.Seq <= t.recvSeq[k] {
			return nil, true
		}
		t.recvSeq[k] = f.Seq
	}
	if t.released[wireEpoch(f.Exchange)] {
		return nil, false
	}
	return t.queueLocked(f.Exchange, f.Dst), false
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

// queueLocked returns (creating if needed) one inbox queue. Callers hold
// t.mu.
func (t *TCPTransport) queueLocked(exchange, worker int) *memQueue {
	k := inboxKey{exchange, worker}
	q, ok := t.inbox[k]
	if !ok {
		q = newMemQueue(t.n, &t.transportCounters)
		t.inbox[k] = q
	}
	return q
}

// peerLocked returns (creating if needed) the sending state for a peer
// address. Callers hold t.mu.
func (t *TCPTransport) peerLocked(addr string) *tcpPeer {
	p, ok := t.peers[addr]
	if !ok {
		p = &tcpPeer{
			t:       t,
			addr:    addr,
			nextSeq: make(map[seqKey]uint64),
			// Distinct deterministic jitter stream per peer.
			jitter: hashAddr(addr),
		}
		t.peers[addr] = p
	}
	return p
}

func hashAddr(addr string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 1099511628211
	}
	return h
}

// send assigns f the next sequence number of its stream and writes it.
func (p *tcpPeer) send(ctx context.Context, f *frame) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := seqKey{f.Exchange, f.Src, f.Dst}
	p.nextSeq[k]++
	f.Seq = p.nextSeq[k]
	return p.writeLocked(ctx, f)
}

// writeLocked delivers one sequenced frame, repairing the connection as
// needed within the redial budget. Callers hold p.mu.
func (p *tcpPeer) writeLocked(ctx context.Context, f *frame) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > tcpMaxRedials {
			return fmt.Errorf("%w: peer %s after %d attempts: %v", ErrTransport, p.addr, attempt, lastErr)
		}
		if attempt > 0 {
			if err := p.backoffLocked(ctx, attempt); err != nil {
				return err
			}
		}
		if p.c == nil {
			if err := p.redialLocked(); err != nil {
				lastErr = err
				continue
			}
		}
		p.c.SetWriteDeadline(time.Now().Add(tcpWriteTimeout))
		if err := p.enc.Encode(f); err != nil {
			lastErr = err
			p.dropConnLocked(err)
			continue
		}
		p.ackMu.Lock()
		p.unacked = append(p.unacked, *f)
		p.lastOK = time.Now()
		p.ackMu.Unlock()
		return nil
	}
}

// backoffLocked sleeps the exponential-backoff delay before redial attempt
// n, with ±50% jitter from the peer's seeded stream. It aborts early when
// the transport closes or the sender's context dies (so Close never waits
// out a backoff schedule).
func (p *tcpPeer) backoffLocked(ctx context.Context, attempt int) error {
	d := tcpRedialBackoff << (attempt - 1)
	if max := 2 * time.Second; d > max || d <= 0 {
		d = 2 * time.Second
	}
	// splitmix64 step: stateful per peer, seeded, no global randomness.
	p.jitter += 0x9e3779b97f4a7c15
	x := p.jitter
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	d = d/2 + time.Duration(x%uint64(d))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-p.t.closeCh:
		return fmt.Errorf("engine: transport closed")
	case <-ctx.Done():
		return ctx.Err()
	}
}

// redialLocked dials the peer, registers the connection (unless the
// transport closed meanwhile — the close-during-dial leak fix), starts the
// ack reader, and replays every unacknowledged frame in order.
func (p *tcpPeer) redialLocked() error {
	t := p.t
	c, err := net.DialTimeout("tcp", p.addr, tcpDialTimeout)
	if err != nil {
		p.lastErr = err.Error()
		return fmt.Errorf("engine: dial %s: %w", p.addr, err)
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

	p.c = c
	p.enc = gob.NewEncoder(countWriter{c: c, ctr: &t.transportCounters})
	p.dialed++
	// Snapshot the replay buffer; concurrent ack-driven trims are fine —
	// resending an already-acked frame is harmless (receiver dedup).
	p.ackMu.Lock()
	pending := append([]frame(nil), p.unacked...)
	p.ackMu.Unlock()
	if p.dialed > 1 {
		p.reconnects++
		live.netReconnects.Add(1)
	}
	go p.ackLoop(c)
	for i := range pending {
		c.SetWriteDeadline(time.Now().Add(tcpWriteTimeout))
		if err := p.enc.Encode(&pending[i]); err != nil {
			p.dropConnLocked(err)
			return fmt.Errorf("engine: resend to %s: %w", p.addr, err)
		}
	}
	if p.dialed > 1 {
		live.netFramesResent.Add(int64(len(pending)))
	}
	p.ackMu.Lock()
	p.lastOK = time.Now()
	p.ackMu.Unlock()
	return nil
}

// dropConnLocked discards a failed connection; the next write redials.
func (p *tcpPeer) dropConnLocked(err error) {
	if err != nil {
		p.lastErr = err.Error()
	}
	if p.c == nil {
		return
	}
	c := p.c
	p.c, p.enc = nil, nil
	c.Close()
	t := p.t
	t.mu.Lock()
	delete(t.conns, c)
	t.mu.Unlock()
}

// ackLoop reads acknowledgments off the reverse
// direction of one dialed connection and trims the unacked buffer. It
// takes only ackMu — never the peer's send mutex — so it keeps draining
// even while a send is blocked mid-write. It exits when the connection
// dies.
func (p *tcpPeer) ackLoop(c net.Conn) {
	dec := gob.NewDecoder(c) // uncounted: acks are bookkeeping, not data
	for {
		var f frame
		if err := dec.Decode(&f); err != nil {
			return
		}
		p.ackMu.Lock()
		p.lastOK = time.Now()
		if f.Ack {
			k := seqKey{f.Exchange, f.Src, f.Dst}
			kept := p.unacked[:0]
			for _, u := range p.unacked {
				if (seqKey{u.Exchange, u.Src, u.Dst} == k) && u.Seq <= f.Seq {
					continue
				}
				kept = append(kept, u)
			}
			p.unacked = kept
		}
		p.ackMu.Unlock()
	}
}

// Send implements Transport. A batch for a hosted worker is queued by
// reference; only a batch for a worker hosted elsewhere is encoded and
// written to a connection.
func (t *TCPTransport) Send(ctx context.Context, exchangeID, src, dst int, batch []rel.Tuple) error {
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
	return p.send(ctx, &frame{Exchange: exchangeID, Src: src, Dst: dst, Col: enc})
}

// CloseSend implements Transport. A hosted worker's queue is closed
// directly. Close frames to other processes are sequenced and deduplicated
// like data frames, so a resend after reconnection can never double-close
// a queue.
func (t *TCPTransport) CloseSend(ctx context.Context, exchangeID, src int) error {
	var firstErr error
	for dst := 0; dst < t.n; dst++ {
		q, p, err := t.route(exchangeID, dst)
		switch {
		case err != nil:
		case q != nil:
			q.closeOne()
		default:
			err = p.send(ctx, &frame{Exchange: exchangeID, Src: src, Dst: dst, Close: true})
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Recv implements Transport. Only hosted workers may receive.
func (t *TCPTransport) Recv(ctx context.Context, exchangeID, dst int) ([]rel.Tuple, bool, error) {
	if !t.hosted[dst] {
		return nil, false, fmt.Errorf("engine: worker %d is not hosted by this transport", dst)
	}
	q, _, err := t.route(exchangeID, dst)
	if err != nil {
		return nil, false, err
	}
	stop := context.AfterFunc(ctx, func() { q.cond.Broadcast() })
	defer stop()
	b, ok, err := q.pop(ctx.Done())
	if err != nil {
		return nil, false, recvErr(ctx, err)
	}
	return b, ok, nil
}

// releasedEpochMemory bounds the straggler filter: remembering this many
// released epochs is far more than any in-flight frame can lag behind.
const releasedEpochMemory = 256

// ReleaseEpoch implements Transport: it frees the inbox queues, dedup
// marks, and sender-side sequence state of a finished run, and remembers
// the epoch so straggler frames still in flight are dropped on arrival
// instead of resurrecting queues nothing will read, and a local Send,
// CloseSend or Recv on it fails.
func (t *TCPTransport) ReleaseEpoch(epoch int64) {
	t.mu.Lock()
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
		p.ackMu.Lock()
		kept := p.unacked[:0]
		for _, u := range p.unacked {
			if wireEpoch(u.Exchange) != epoch {
				kept = append(kept, u)
			}
		}
		p.unacked = kept
		p.ackMu.Unlock()
	}
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
// accepted — without telling the sending state, simulating a network
// partition or peer restart: the next write on each severed connection
// fails and exercises the reconnect/resend path. It returns the number of
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

// PeerHealth describes the transport's view of one peer link.
type PeerHealth struct {
	// Addr is the peer's address.
	Addr string
	// Connected reports whether a connection is currently established.
	Connected bool
	// Reconnects counts successful redials after the first connection.
	Reconnects int64
	// UnackedFrames is the number of frames sent but not yet acknowledged —
	// the replay buffer a reconnect would resend.
	UnackedFrames int
	// LastOK is the last time the link made progress (successful write or
	// received ack); zero if never.
	LastOK time.Time
	// LastErr is the most recent connection error, "" if none.
	LastErr string
}

// PeerHealth snapshots the health of every peer this transport has sent
// to, sorted by address. Published process-wide via the
// "parajoin_tcp_peers" expvar.
func (t *TCPTransport) PeerHealth() []PeerHealth {
	t.mu.Lock()
	peers := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()
	out := make([]PeerHealth, 0, len(peers))
	for _, p := range peers {
		p.mu.Lock()
		h := PeerHealth{
			Addr:       p.addr,
			Connected:  p.c != nil,
			Reconnects: p.reconnects,
			LastErr:    p.lastErr,
		}
		p.mu.Unlock()
		p.ackMu.Lock()
		h.UnackedFrames = len(p.unacked)
		h.LastOK = p.lastOK
		p.ackMu.Unlock()
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.closeCh) // wakes redial backoffs so Close never waits them out
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
	unregisterTCP(t)
	return nil
}

// ---------------------------------------------------------------- expvar

// Live TCP transports, published as the "parajoin_tcp_peers" expvar: a
// peer-health list aggregated across every transport in the process.
var (
	tcpRegistryMu sync.Mutex
	tcpRegistry   = make(map[*TCPTransport]struct{})
	tcpPublish    sync.Once
)

func registerTCP(t *TCPTransport) {
	tcpRegistryMu.Lock()
	tcpRegistry[t] = struct{}{}
	tcpRegistryMu.Unlock()
	tcpPublish.Do(func() {
		expvar.Publish("parajoin_tcp_peers", expvar.Func(func() any {
			tcpRegistryMu.Lock()
			transports := make([]*TCPTransport, 0, len(tcpRegistry))
			for t := range tcpRegistry {
				transports = append(transports, t)
			}
			tcpRegistryMu.Unlock()
			var all []PeerHealth
			for _, t := range transports {
				all = append(all, t.PeerHealth()...)
			}
			return all
		}))
	})
}

func unregisterTCP(t *TCPTransport) {
	tcpRegistryMu.Lock()
	delete(tcpRegistry, t)
	tcpRegistryMu.Unlock()
}
