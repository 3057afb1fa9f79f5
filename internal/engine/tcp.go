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
	"parajoin/internal/trace"
)

// TCPTransport is the wire implementation of Transport: workers exchange
// dictionary-encoded columnar batches (internal/colbatch frames, gob-framed)
// over TCP connections. A transport instance hosts one or more workers of
// the cluster (all of them for a single-process loopback cluster, one per
// process for a real deployment) and dials peers lazily.
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
	opts   TCPOptions
	transportCounters

	listeners []net.Listener
	acceptWG  sync.WaitGroup
	hbWG      sync.WaitGroup
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

// TCPOptions tune a TCPTransport's self-healing behavior. The zero value
// gets defaults from withDefaults; NewTCPTransport uses all defaults.
type TCPOptions struct {
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// WriteTimeout bounds each frame write (default 10s); a peer that stops
	// draining for longer counts as failed and triggers a redial.
	WriteTimeout time.Duration
	// RedialAttempts is how many reconnect-and-resend cycles one Send may
	// burn through before failing with ErrTransport (default 4). Negative
	// disables reconnection entirely: the first failure is final — the
	// legacy fail-fast behavior, and the right setting when a higher layer
	// owns recovery.
	RedialAttempts int
	// RedialBackoff is the delay before the first redial, doubling each
	// attempt (capped at 2s) with ±50% jitter from the seeded source
	// (default 25ms).
	RedialBackoff time.Duration
	// HeartbeatEvery, when > 0, pings established peer connections at this
	// period so peer loss is detected on idle links and PeerHealth stays
	// fresh. Off by default: exchanges are rarely idle, and heartbeat
	// frames would perturb byte-level send/receive parity.
	HeartbeatEvery time.Duration
	// Seed drives backoff jitter. No global randomness: the same seed
	// yields the same redial schedule.
	Seed int64
	// Tracer receives KindNet events (reconnects with resend counts,
	// heartbeat misses). Nil disables them.
	Tracer *trace.Tracer
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.RedialAttempts == 0 {
		o.RedialAttempts = 4
	}
	if o.RedialBackoff <= 0 {
		o.RedialBackoff = 25 * time.Millisecond
	}
	return o
}

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
// acknowledged number); heartbeat pings carry HB, pongs HB+Ack. A data
// frame carries its batch as Col, exactly one encoded colbatch batch.
type frame struct {
	Exchange int
	Src      int
	Dst      int
	Seq      uint64
	Close    bool
	Ack      bool
	HB       bool
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

// NewTCPTransport starts a transport hosting the given workers with
// default options (self-healing on). addrs[i] is worker i's listen address;
// hosted workers are bound immediately (pass port 0 addresses to let the OS
// pick — see Addrs). Every worker of the cluster must be hosted by exactly
// one process.
func NewTCPTransport(addrs []string, hosted []int) (*TCPTransport, error) {
	return NewTCPTransportOpts(addrs, hosted, TCPOptions{})
}

// NewTCPTransportOpts is NewTCPTransport with explicit options.
func NewTCPTransportOpts(addrs []string, hosted []int, opts TCPOptions) (*TCPTransport, error) {
	t := &TCPTransport{
		n:        len(addrs),
		addrs:    append([]string(nil), addrs...),
		hosted:   make(map[int]bool, len(hosted)),
		opts:     opts.withDefaults(),
		closeCh:  make(chan struct{}),
		peers:    make(map[string]*tcpPeer),
		conns:    make(map[net.Conn]struct{}),
		inbox:    make(map[inboxKey]*memQueue),
		recvSeq:  make(map[seqKey]uint64),
		released: make(map[int64]bool),
	}
	t.listeners = make([]net.Listener, t.n)
	for _, w := range hosted {
		if w < 0 || w >= t.n {
			return nil, fmt.Errorf("engine: hosted worker %d out of range", w)
		}
		t.hosted[w] = true
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
	if t.opts.HeartbeatEvery > 0 {
		t.hbWG.Add(1)
		go t.heartbeatLoop()
	}
	registerTCP(t)
	return t, nil
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
// framing and type descriptors included. Ack and heartbeat-pong frames
// travel outside these (plain encoders on the reverse direction), so the
// data direction's sent and received byte totals stay exactly equal.
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
	enc := gob.NewEncoder(c) // acks and pongs; this loop is the only writer
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
		if f.HB {
			c.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
			if enc.Encode(frame{HB: true, Ack: true}) != nil {
				return
			}
			continue
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
			c.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
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
			continue
		}
		if f.Close {
			q.closeOne()
			continue
		}
		t.countReceived(1, 0)
		q.push(wireBatch{tuples: batch})
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

func (t *TCPTransport) queue(exchange, worker int) *memQueue {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.queueLocked(exchange, worker)
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

// peer returns (creating if needed) the sending state for a peer address.
func (t *TCPTransport) peer(addr string) (*tcpPeer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("engine: transport closed")
	}
	p, ok := t.peers[addr]
	if !ok {
		p = &tcpPeer{
			t:       t,
			addr:    addr,
			nextSeq: make(map[seqKey]uint64),
			// Distinct deterministic jitter stream per (seed, peer).
			jitter: uint64(t.opts.Seed)*0x9e3779b97f4a7c15 + hashAddr(addr),
		}
		t.peers[addr] = p
	}
	return p, nil
}

func hashAddr(addr string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 1099511628211
	}
	return h
}

func (t *TCPTransport) send(ctx context.Context, f *frame, dst int) error {
	p, err := t.peer(t.addrs[dst])
	if err != nil {
		return err
	}
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
	t := p.t
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if t.opts.RedialAttempts < 0 || attempt > t.opts.RedialAttempts {
				return fmt.Errorf("%w: peer %s after %d attempts: %v", ErrTransport, p.addr, attempt, lastErr)
			}
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
		p.c.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
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
	d := p.t.opts.RedialBackoff << (attempt - 1)
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
	c, err := net.DialTimeout("tcp", p.addr, t.opts.DialTimeout)
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
		if t.opts.Tracer.Enabled() {
			t.opts.Tracer.Emit(trace.Event{
				Kind: trace.KindNet, Run: -1, Worker: -1, Exchange: -1,
				Name: "reconnect " + p.addr, Tuples: int64(len(pending)),
			})
		}
	}
	go p.ackLoop(c)
	for i := range pending {
		c.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
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

// ackLoop reads acknowledgments (and heartbeat pongs) off the reverse
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
		if !f.HB && f.Ack {
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

// heartbeatLoop pings every established peer connection at the configured
// period. A failed ping drops the connection (the next Send repairs it) and
// emits a heartbeat-miss event, so dead peers surface even on idle links.
func (t *TCPTransport) heartbeatLoop() {
	defer t.hbWG.Done()
	tick := time.NewTicker(t.opts.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-t.closeCh:
			return
		case <-tick.C:
		}
		t.mu.Lock()
		peers := make([]*tcpPeer, 0, len(t.peers))
		for _, p := range t.peers {
			peers = append(peers, p)
		}
		t.mu.Unlock()
		for _, p := range peers {
			p.mu.Lock()
			if p.c != nil {
				p.c.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
				if err := p.enc.Encode(&frame{HB: true}); err != nil {
					p.dropConnLocked(err)
					live.netHeartbeatMisses.Add(1)
					if t.opts.Tracer.Enabled() {
						t.opts.Tracer.Emit(trace.Event{
							Kind: trace.KindNet, Run: -1, Worker: -1, Exchange: -1,
							Name: "heartbeat-miss " + p.addr,
						})
					}
				} else {
					live.netHeartbeats.Add(1)
				}
			}
			p.mu.Unlock()
		}
	}
}

// Send implements Transport. Frames always travel over TCP, even between
// workers hosted by the same process, so loopback clusters exercise the
// full wire path.
func (t *TCPTransport) Send(ctx context.Context, exchangeID, src, dst int, batch []rel.Tuple) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t.countSent(1, 0) // wire bytes are counted by the connection's countWriter
	enc, err := encodeBatch(batch)
	if err != nil {
		return fmt.Errorf("%w: encode batch: %v", ErrTransport, err)
	}
	return t.send(ctx, &frame{Exchange: exchangeID, Src: src, Dst: dst, Col: enc}, dst)
}

// CloseSend implements Transport. Close frames are sequenced and
// deduplicated like data frames, so a resend after reconnection can never
// double-close a queue.
func (t *TCPTransport) CloseSend(ctx context.Context, exchangeID, src int) error {
	var firstErr error
	for dst := 0; dst < t.n; dst++ {
		err := t.send(ctx, &frame{Exchange: exchangeID, Src: src, Dst: dst, Close: true}, dst)
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
	q := t.queue(exchangeID, dst)
	stop := context.AfterFunc(ctx, func() { q.cond.Broadcast() })
	defer stop()
	b, ok, err := q.pop(ctx.Done())
	if err != nil {
		return nil, false, recvErr(ctx, err)
	}
	return b.tuples, ok, nil
}

// releasedEpochMemory bounds the straggler filter: remembering this many
// released epochs is far more than any in-flight frame can lag behind.
const releasedEpochMemory = 256

// ReleaseEpoch implements EpochReleaser: it frees the inbox queues, dedup
// marks, and sender-side sequence state of a finished run, and remembers
// the epoch so straggler frames still in flight are dropped on arrival
// instead of resurrecting queues nothing will read.
func (t *TCPTransport) ReleaseEpoch(epoch int64) {
	t.mu.Lock()
	for k, q := range t.inbox {
		if wireEpoch(k.exchange) != epoch {
			continue
		}
		q.mu.Lock()
		if q.ctr != nil {
			for range q.batches {
				q.ctr.dequeued()
			}
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
	t.hbWG.Wait()
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
