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
	// ReleaseEpoch frees the queue state of a finished run (engine epoch).
	// The engine calls it after every run so a long-running process serving
	// many queries doesn't leak one queue set per query. Epochs are
	// single-use: a later Send, CloseSend or Recv on a released epoch fails
	// with a retryable ErrTransport.
	ReleaseEpoch(epoch int64)
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

// encodeBatch encodes one tuple batch as a standalone colbatch frame.
func encodeBatch(batch []rel.Tuple) ([]byte, error) {
	e := encoders.Get().(*colbatch.Encoder)
	data, err := e.AppendTuples(nil, batch)
	encoders.Put(e)
	return data, err
}

// memQueue is an unbounded FIFO of batches with producer accounting and a
// depth gauge.
type memQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	batches [][]rel.Tuple
	open    int // producers that have not closed yet
	ctr     *transportCounters
}

func newMemQueue(producers int, ctr *transportCounters) *memQueue {
	q := &memQueue{open: producers, ctr: ctr}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *memQueue) push(batch []rel.Tuple) {
	q.mu.Lock()
	q.batches = append(q.batches, batch)
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

// errRecvInterrupted is pop's wait-aborted error. It wraps
// context.Canceled (so cancellation filters still match) but is distinct
// from a bare context error: Recv replaces it with the context's actual
// cancellation cause, which is what lets Report and the server's error
// codes tell a client cancel from a transport failure or a Close.
var errRecvInterrupted = fmt.Errorf("engine: recv interrupted: %w", context.Canceled)

// pop blocks until a batch is available or all producers closed. The done
// channel aborts the wait with errRecvInterrupted.
func (q *memQueue) pop(done <-chan struct{}) ([]rel.Tuple, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if len(q.batches) > 0 {
			b := q.batches[0]
			q.batches = q.batches[1:]
			q.ctr.dequeued()
			return b, true, nil
		}
		if q.open <= 0 {
			return nil, false, nil
		}
		select {
		case <-done:
			return nil, false, errRecvInterrupted
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
