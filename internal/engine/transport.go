package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"parajoin/internal/colbatch"
	"parajoin/internal/rel"
)

// ErrTransport marks transport-layer failures: dials, writes, and peer loss
// that survived the transport's own repair budget (reconnect + resend).
// Errors wrapping it are retryable — the HyperCube shuffle is a single
// communication round, so a failed run left no state behind and can simply
// be re-executed from base relations.
var ErrTransport = errors.New("engine: transport failure")

// Retryable classifies a run error for query-level recovery: transport
// failures are retryable, while resource exhaustion (memory, disk),
// cancellation, deadline expiry, and cluster closure are terminal — retrying
// those would either fail identically or override a caller's decision.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	switch {
	case errors.Is(err, ErrOutOfMemory),
		errors.Is(err, ErrSpillBudget),
		errors.Is(err, ErrClosed),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return false
	}
	return errors.Is(err, ErrTransport)
}

// Transport moves tuple batches between workers. Implementations must allow
// concurrent use from all workers. Queues are unbounded: a producer never
// blocks on a slow consumer, which (together with pull-based consumers)
// rules out exchange deadlocks by construction.
type Transport interface {
	// Send delivers a batch from worker src to worker dst on the given
	// exchange. The callee owns the batch after the call.
	Send(ctx context.Context, exchangeID, src, dst int, batch []rel.Tuple) error
	// CloseSend signals that src will send nothing more on the exchange.
	// Every worker must call it exactly once per exchange it produces for.
	CloseSend(ctx context.Context, exchangeID, src int) error
	// Recv returns the next batch destined to dst on the exchange. ok is
	// false once every producer has closed and all batches were delivered.
	Recv(ctx context.Context, exchangeID, dst int) (batch []rel.Tuple, ok bool, err error)
	// Close releases transport resources.
	Close() error
}

// TransportStats counts a transport's lifetime traffic: batches and bytes
// in each direction plus queue-depth gauges. Byte counts are wire bytes for
// TCPTransport; for MemTransport they are encoded colbatch bytes when
// Columnar is set and the wire-equivalent 8 bytes per value otherwise.
// Counters are cumulative since the transport was created; the engine
// snapshots them around each run to put per-run deltas in the Report.
type TransportStats struct {
	BatchesSent     int64
	BatchesReceived int64
	BytesSent       int64
	BytesReceived   int64
	// QueueDepth is the number of batches currently enqueued and not yet
	// received; MaxQueueDepth is its high-water mark — the backlog a slow
	// consumer (straggler) let build up.
	QueueDepth    int64
	MaxQueueDepth int64
}

// TransportMeter is implemented by transports that count their traffic.
// Both built-in transports implement it.
type TransportMeter interface {
	TransportStats() TransportStats
}

// EpochReleaser is implemented by transports that can free the queue state
// of a finished run (engine epoch). The engine calls it after every run so
// a long-running process serving many queries doesn't leak one queue set
// per query. Both built-in transports implement it.
type EpochReleaser interface {
	ReleaseEpoch(epoch int64)
}

// wireEpoch recovers the run epoch from a transport-level exchange id (see
// exec.wireID: epoch<<20 | planExchangeID).
func wireEpoch(exchangeID int) int64 {
	return int64(exchangeID >> 20)
}

// PlanExchangeID recovers the plan-local exchange id from a transport-level
// id — the inverse of the epoch namespacing exec.wireID applies. Fault
// plans select exchanges by plan-local id so a rule stays valid across
// re-executions (each retry runs in a fresh epoch).
func PlanExchangeID(exchangeID int) int {
	return exchangeID & (1<<20 - 1)
}

// transportCounters is the shared TransportMeter implementation.
type transportCounters struct {
	batchesSent   atomic.Int64
	batchesRecv   atomic.Int64
	bytesSent     atomic.Int64
	bytesRecv     atomic.Int64
	queueDepth    atomic.Int64
	maxQueueDepth atomic.Int64
}

func (c *transportCounters) countSent(batches, bytes int64) {
	c.batchesSent.Add(batches)
	c.bytesSent.Add(bytes)
	live.batchesSent.Add(batches)
	live.bytesSent.Add(bytes)
}

func (c *transportCounters) countReceived(batches, bytes int64) {
	c.batchesRecv.Add(batches)
	c.bytesRecv.Add(bytes)
	live.batchesRecv.Add(batches)
	live.bytesRecv.Add(bytes)
}

func (c *transportCounters) enqueued() {
	d := c.queueDepth.Add(1)
	live.queueDepth.Add(1)
	for {
		m := c.maxQueueDepth.Load()
		if d <= m || c.maxQueueDepth.CompareAndSwap(m, d) {
			return
		}
	}
}

func (c *transportCounters) dequeued() {
	c.queueDepth.Add(-1)
	live.queueDepth.Add(-1)
}

// TransportStats implements TransportMeter.
func (c *transportCounters) TransportStats() TransportStats {
	return TransportStats{
		BatchesSent:     c.batchesSent.Load(),
		BatchesReceived: c.batchesRecv.Load(),
		BytesSent:       c.bytesSent.Load(),
		BytesReceived:   c.bytesRecv.Load(),
		QueueDepth:      c.queueDepth.Load(),
		MaxQueueDepth:   c.maxQueueDepth.Load(),
	}
}

// batchWireBytes is the wire-equivalent size of a batch: 8 bytes per value.
func batchWireBytes(batch []rel.Tuple) int64 {
	var n int64
	for _, t := range batch {
		n += 8 * int64(len(t))
	}
	return n
}

// encoders pools colbatch encoders for the columnar send paths (MemTransport
// and TCPTransport share it) so per-batch scratch state is reused.
var encoders = sync.Pool{New: func() any { return new(colbatch.Encoder) }}

// encodeBatch encodes one tuple batch as a standalone colbatch frame.
func encodeBatch(batch []rel.Tuple) ([]byte, error) {
	e := encoders.Get().(*colbatch.Encoder)
	data, err := e.AppendTuples(nil, batch)
	encoders.Put(e)
	return data, err
}

// wireBatch is a queued exchange batch: tuple form on the flat in-memory
// path and after a TCP frame is decoded, encoded colbatch bytes on the
// columnar in-memory path (exactly one is set).
type wireBatch struct {
	tuples []rel.Tuple
	enc    []byte
}

// memQueue is an unbounded FIFO of batches with producer accounting and an
// optional depth gauge.
type memQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	batches []wireBatch
	open    int // producers that have not closed yet
	ctr     *transportCounters
}

func newMemQueue(producers int, ctr *transportCounters) *memQueue {
	q := &memQueue{open: producers, ctr: ctr}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *memQueue) push(batch wireBatch) {
	q.mu.Lock()
	q.batches = append(q.batches, batch)
	// Inside the lock so the gauge can never go negative: pop decrements
	// under the same lock, after this increment is visible.
	if q.ctr != nil {
		q.ctr.enqueued()
	}
	q.mu.Unlock()
	q.cond.Signal()
}

func (q *memQueue) closeOne() {
	q.mu.Lock()
	q.open--
	q.mu.Unlock()
	q.cond.Broadcast()
}

// errRecvInterrupted is pop's wait-aborted error. It wraps
// context.Canceled (so cancellation filters still match) but is distinct
// from a bare context error: Recv replaces it with the context's actual
// cancellation cause, which is what lets Report and the server's error
// codes tell a client cancel from a transport failure or a Close.
var errRecvInterrupted = fmt.Errorf("engine: recv interrupted: %w", context.Canceled)

// pop blocks until a batch is available or all producers closed. The done
// channel aborts the wait with errRecvInterrupted.
func (q *memQueue) pop(done <-chan struct{}) (wireBatch, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if len(q.batches) > 0 {
			b := q.batches[0]
			q.batches = q.batches[1:]
			if q.ctr != nil {
				q.ctr.dequeued()
			}
			return b, true, nil
		}
		if q.open <= 0 {
			return wireBatch{}, false, nil
		}
		select {
		case <-done:
			return wireBatch{}, false, errRecvInterrupted
		default:
		}
		q.cond.Wait()
	}
}

// recvErr translates pop's abort into the receiving context's cancellation
// cause: a client cancel, a deadline, a Close (ErrClosed), or a transport
// failure that canceled the run all surface as themselves instead of as an
// anonymous context.Canceled.
func recvErr(ctx context.Context, err error) error {
	if cause := context.Cause(ctx); cause != nil {
		return cause
	}
	return err
}

// MemTransport is the in-process Transport: one unbounded queue per
// (exchange, destination worker). It is the default for tests, benchmarks,
// and the single-process engine; TCPTransport provides the wire version.
type MemTransport struct {
	workers int
	// Columnar routes batches through the colbatch codec: Send encodes each
	// batch to the exact frame TCPTransport would put on the wire and Recv
	// decodes it back, so byte counters report encoded bytes and benchmarks
	// pay the real codec cost. Set it before the first Send; it is read
	// concurrently afterwards.
	Columnar bool
	transportCounters

	mu     sync.Mutex
	queues map[int][]*memQueue // exchangeID -> per-destination queues
	done   chan struct{}
	once   sync.Once
}

// NewMemTransport creates an in-memory transport for n workers.
func NewMemTransport(n int) *MemTransport {
	return &MemTransport{
		workers: n,
		queues:  make(map[int][]*memQueue),
		done:    make(chan struct{}),
	}
}

func (t *MemTransport) queue(exchangeID, dst int) *memQueue {
	t.mu.Lock()
	defer t.mu.Unlock()
	qs, ok := t.queues[exchangeID]
	if !ok {
		qs = make([]*memQueue, t.workers)
		for i := range qs {
			qs[i] = newMemQueue(t.workers, &t.transportCounters)
		}
		t.queues[exchangeID] = qs
	}
	return qs[dst]
}

// Send implements Transport.
func (t *MemTransport) Send(ctx context.Context, exchangeID, src, dst int, batch []rel.Tuple) error {
	if dst < 0 || dst >= t.workers {
		return fmt.Errorf("engine: send to worker %d of %d", dst, t.workers)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if t.Columnar {
		enc, err := encodeBatch(batch)
		if err != nil {
			return fmt.Errorf("%w: encode batch: %v", ErrTransport, err)
		}
		t.countSent(1, int64(len(enc)))
		t.queue(exchangeID, dst).push(wireBatch{enc: enc})
		return nil
	}
	t.countSent(1, batchWireBytes(batch))
	t.queue(exchangeID, dst).push(wireBatch{tuples: batch})
	return nil
}

// CloseSend implements Transport.
func (t *MemTransport) CloseSend(ctx context.Context, exchangeID, src int) error {
	for dst := 0; dst < t.workers; dst++ {
		t.queue(exchangeID, dst).closeOne()
	}
	return nil
}

// Recv implements Transport.
func (t *MemTransport) Recv(ctx context.Context, exchangeID, dst int) ([]rel.Tuple, bool, error) {
	q := t.queue(exchangeID, dst)
	// Wake waiters when the context dies.
	stop := context.AfterFunc(ctx, func() { q.cond.Broadcast() })
	defer stop()
	b, ok, err := q.pop(ctx.Done())
	if err != nil {
		return nil, false, recvErr(ctx, err)
	}
	if !ok {
		return nil, false, nil
	}
	if b.enc != nil {
		batch, err := colbatch.Decode(b.enc)
		if err != nil {
			return nil, false, fmt.Errorf("%w: decode batch: %v", ErrTransport, err)
		}
		t.countReceived(1, int64(len(b.enc)))
		return batch.Tuples(), true, nil
	}
	t.countReceived(1, batchWireBytes(b.tuples))
	return b.tuples, true, nil
}

// ReleaseEpoch implements EpochReleaser: it frees the queues of a finished
// run. Any batches still enqueued are dropped from the depth gauge.
func (t *MemTransport) ReleaseEpoch(epoch int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, qs := range t.queues {
		if wireEpoch(id) != epoch {
			continue
		}
		for _, q := range qs {
			q.mu.Lock()
			if q.ctr != nil {
				for range q.batches {
					q.ctr.dequeued()
				}
			}
			q.batches = nil
			q.mu.Unlock()
		}
		delete(t.queues, id)
	}
}

// QueueCount reports the number of live inbox queues — introspection for
// leak checks: after every run has finished and released its epoch it
// should be zero.
func (t *MemTransport) QueueCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, qs := range t.queues {
		n += len(qs)
	}
	return n
}

// Close implements Transport.
func (t *MemTransport) Close() error {
	t.once.Do(func() {
		close(t.done)
		t.mu.Lock()
		for _, qs := range t.queues {
			for _, q := range qs {
				q.cond.Broadcast()
			}
		}
		t.mu.Unlock()
	})
	return nil
}
