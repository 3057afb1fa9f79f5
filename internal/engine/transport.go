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

// ErrTransport marks transport-layer failures: a failed dial or write, a
// lost connection, or a stream whose frames arrived out of sequence or
// corrupt. The transport repairs none of them. Errors wrapping it are
// retryable — the HyperCube shuffle is a single communication round, so a
// failed run left no state behind and can simply be re-executed from base
// relations.
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
	// exchange and hands it over: a worker the transport hosts receives
	// that very batch and owns it, so the caller must not write it after
	// the call. The transport itself never writes or keeps a batch it has
	// encoded, so a caller that only reads it on (a resend, say) sees it
	// intact.
	Send(ctx context.Context, exchangeID, src, dst int, batch rel.Batch) error
	// CloseSend signals that src will send nothing more on the exchange.
	// Every worker must call it exactly once per exchange it produces for.
	CloseSend(ctx context.Context, exchangeID, src int) error
	// Recv returns the next batch destined to dst on the exchange, which
	// the receiver owns. ok is false once every producer has closed and all
	// batches were delivered.
	Recv(ctx context.Context, exchangeID, dst int) (batch rel.Batch, ok bool, err error)
	// ReleaseEpoch frees the queue state of a finished run (engine epoch)
	// and returns, per worker, the most tuples that ever waited at once in
	// the run's queues into that worker (0 for a worker hosted elsewhere),
	// the bytes of the run's frames that arrived over sockets, frame
	// length words and headers included, and the batches its hosted
	// workers' queues took in, whenever in the run they came.
	// The engine calls it after every run so a long-running process serving
	// many queries doesn't leak one queue set per query. Epochs are
	// single-use: a later Send, CloseSend or Recv on a released epoch fails
	// with a retryable ErrTransport.
	ReleaseEpoch(epoch int64) (peakQueued []int64, bytesReceived, batchesReceived int64)
	// TransportStats returns the transport's lifetime traffic counters.
	TransportStats() TransportStats
	// Close releases transport resources.
	Close() error
}

// TransportStats counts a transport's lifetime traffic: batches and bytes
// in each direction plus queue-depth gauges. Bytes are the ones that
// crossed a socket; a batch delivered to a worker hosted by the same
// transport counts as one batch and 0 bytes. Counters are cumulative since
// the transport was created; the engine snapshots them around each run to
// put per-run deltas in the Report.
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

// transportCounters implements TransportStats.
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
	raise(&c.maxQueueDepth, c.queueDepth.Add(1))
	live.queueDepth.Add(1)
}

// raise lifts the high-water mark m to v.
func raise(m *atomic.Int64, v int64) {
	for p := m.Load(); v > p && !m.CompareAndSwap(p, v); p = m.Load() {
	}
}

// queueGauge counts the tuples waiting in one worker's inbound queues of
// one run, with their high-water mark, the values they hold, and the
// batches pushed to them.
type queueGauge struct{ now, peak, vals, batches atomic.Int64 }

func (g *queueGauge) add(b rel.Batch, sign int64) {
	g.vals.Add(sign * int64(len(b.Vals)))
	raise(&g.peak, g.now.Add(sign*int64(b.Len())))
}

func (c *transportCounters) dequeued() {
	c.queueDepth.Add(-1)
	live.queueDepth.Add(-1)
}

// TransportStats implements Transport.
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

// encoders pools colbatch encoders for the wire send path so per-batch
// scratch state is reused.
var encoders = sync.Pool{New: func() any { return new(colbatch.Encoder) }}

// encodeBatch encodes one batch as a standalone colbatch frame.
func encodeBatch(batch rel.Batch) ([]byte, error) {
	e := encoders.Get().(*colbatch.Encoder)
	data, err := e.AppendBatch(nil, batch)
	encoders.Put(e)
	return data, err
}

// memQueue is an unbounded FIFO of batches with producer accounting, a
// depth gauge and its worker's queued-tuples gauge.
type memQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	batches []rel.Batch
	open    int   // producers that have not closed yet
	err     error // set once a stream into the queue broke; pop returns it
	ctr     *transportCounters
	queued  *queueGauge
}

func newMemQueue(producers int, ctr *transportCounters, queued *queueGauge) *memQueue {
	q := &memQueue{open: producers, ctr: ctr, queued: queued}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *memQueue) push(batch rel.Batch) {
	q.mu.Lock()
	q.batches = append(q.batches, batch)
	q.queued.add(batch, 1)
	q.queued.batches.Add(1)
	// Inside the lock so the gauge can never go negative: pop decrements
	// under the same lock, after this increment is visible.
	q.ctr.enqueued()
	q.mu.Unlock()
	q.cond.Signal()
}

func (q *memQueue) closeOne() {
	q.mu.Lock()
	q.open--
	q.mu.Unlock()
	q.cond.Broadcast()
}

// fail breaks the queue: every pop from now on returns err (the first one
// given wins).
func (q *memQueue) fail(err error) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *memQueue) failed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err != nil
}

// errRecvInterrupted is pop's wait-aborted error. It wraps
// context.Canceled (so cancellation filters still match) but is distinct
// from a bare context error: Recv replaces it with the context's actual
// cancellation cause, which is what lets Report and the server's error
// codes tell a client cancel from a transport failure or a Close.
var errRecvInterrupted = fmt.Errorf("engine: recv interrupted: %w", context.Canceled)

// pop blocks until a batch is available, all producers closed or the queue
// failed. The done channel aborts the wait with errRecvInterrupted.
func (q *memQueue) pop(done <-chan struct{}) (rel.Batch, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if b, ok, ready, err := q.take(); ready {
			return b, ok, err
		}
		select {
		case <-done:
			return rel.Batch{}, false, errRecvInterrupted
		default:
		}
		q.cond.Wait()
	}
}

// tryPop is pop without the wait: ready is false when the queue holds no
// batch and still has open producers.
func (q *memQueue) tryPop() (b rel.Batch, ok, ready bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.take()
}

// take is pop's outcome when it needs no wait: the queue's failure, its
// next batch, or the end of its stream. The caller holds q.mu.
func (q *memQueue) take() (b rel.Batch, ok, ready bool, err error) {
	switch {
	case q.err != nil:
		return b, false, true, q.err
	case len(q.batches) > 0:
		b = q.batches[0]
		q.batches = q.batches[1:]
		q.ctr.dequeued()
		q.queued.add(b, -1)
		return b, true, true, nil
	case q.open <= 0:
		return b, false, true, nil
	}
	return b, false, false, nil
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
