package trace

import (
	"sync"
	"time"
)

// Kind classifies an event.
type Kind string

// The event kinds the engine emits.
const (
	// KindRun marks a query run boundary (Name "start" or "end"; the end
	// event carries the wall time in Dur).
	KindRun Kind = "run"
	// KindOp is one operator's summary on one worker: Tuples rows emitted,
	// Dur inclusive wall time (children included), Op the node's
	// plan-tree id, Exchange the tree it belongs to (-1 for the root tree).
	KindOp Kind = "op"
	// KindSend is one exchange producer's summary on one worker: Tuples
	// routed into the transport (post-replication), Dur the producer
	// task's wall time.
	KindSend Kind = "send"
	// KindPhase is a Tributary phase ("sort" or "join") on one worker.
	KindPhase Kind = "phase"
	// KindJoin is one sub-range of a parallel Tributary join on one worker:
	// Name "subjoin i/n", Op the sub-range's index in range order, Tuples
	// the rows it produced, Dur its wall time. Serial joins emit none.
	KindJoin Kind = "join"
	// KindSpill marks one in-memory run sealed to disk on one worker:
	// Name the spilling operator's label, Tuples the tuples sealed, Bytes
	// the segment size, Dur the sort+write time.
	KindSpill Kind = "spill"
	// KindQuery is a serving-layer query span (emitted by internal/server,
	// not the engine): Name is the lifecycle point ("start") or the outcome
	// ("ok", "overloaded", "canceled", ...), Run the server's query sequence
	// number, Dur the end-to-end latency, Tuples the result rows. The
	// outcome event's Attempts field is > 1 when the query was automatically
	// re-executed after a retryable transport failure.
	KindQuery Kind = "query"
	// KindNet is a cluster event from the coordinator ("cluster-join",
	// "-leave", "-dead", "-handoff", "-resize") or the fragment dispatcher
	// ("frag-dispatch", "-result", "-merge"): Worker and Tuples carry the
	// event's member id or count and its size.
	KindNet Kind = "net"
	// KindRetry marks one automatic query re-execution (emitted by
	// internal/server between attempts): Attempts is the attempt about to
	// start, Name the retried error.
	KindRetry Kind = "retry"
)

// Event is one structured trace record. The JSONL sink writes it verbatim
// via encoding/json: timestamps are RFC3339Nano, durations are nanosecond
// integers.
type Event struct {
	// Time is when the event was emitted (stamped by Emit when zero).
	Time time.Time `json:"t"`
	// Kind classifies the event; see the Kind constants.
	Kind Kind `json:"kind"`
	// Run is the engine epoch of the query run the event belongs to.
	Run int64 `json:"run"`
	// Worker is the worker id, or -1 for run-level events.
	Worker int `json:"worker"`
	// Exchange is the exchange id the event concerns: the producing
	// exchange for KindSend, the tree the operator belongs to for KindOp
	// (-1 when the operator runs in the root tree).
	Exchange int `json:"exchange"`
	// Op is the operator's postorder id within its tree (KindOp only).
	Op int `json:"op,omitempty"`
	// Name labels the event: operator label, exchange name, phase name.
	Name string `json:"name,omitempty"`
	// Tuples counts rows: emitted (KindOp), routed (KindSend), or
	// processed (KindPhase).
	Tuples int64 `json:"tuples,omitempty"`
	// Bytes counts wire bytes where known.
	Bytes int64 `json:"bytes,omitempty"`
	// Dur is the span's wall time.
	Dur time.Duration `json:"dur,omitempty"`
	// Attempts is the query's execution attempt count (KindQuery outcome
	// and KindRetry events); values > 1 mean the serving layer re-executed
	// the query after a retryable failure.
	Attempts int64 `json:"attempts,omitempty"`
}

// Sink receives batches of events from a Tracer. Implementations must be
// safe for concurrent Write calls (shards flush independently).
type Sink interface {
	Write(events []Event)
}

// shardCount must be a power of two; shards keep concurrent emitters from
// all workers off a single mutex.
const shardCount = 16

// flushBatch is the per-shard buffer size that triggers a flush to the sink.
const flushBatch = 64

type shard struct {
	mu  sync.Mutex
	buf []Event
	// pad keeps neighbouring shards off one cache line.
	_ [32]byte
}

// Tracer fans events from concurrent workers into a Sink through sharded
// buffers. The zero value and nil are valid no-op tracers.
type Tracer struct {
	sink   Sink
	shards [shardCount]shard
}

// New creates a tracer writing to sink. A nil sink yields a no-op tracer.
func New(sink Sink) *Tracer {
	return &Tracer{sink: sink}
}

// Enabled reports whether Emit does anything. Engine code uses it to skip
// building span wrappers entirely when tracing is off.
func (t *Tracer) Enabled() bool {
	return t != nil && t.sink != nil
}

// Sink returns the tracer's sink (nil for a no-op tracer).
func (t *Tracer) Sink() Sink {
	if t == nil {
		return nil
	}
	return t.sink
}

// Emit records one event. It is safe for concurrent use and is a no-op on
// a nil or sink-less tracer. Events buffer per shard and reach the sink in
// batches; call Flush to force them through.
func (t *Tracer) Emit(e Event) {
	if t == nil || t.sink == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	s := &t.shards[uint(e.Worker)&(shardCount-1)]
	s.mu.Lock()
	s.buf = append(s.buf, e)
	var out []Event
	if len(s.buf) >= flushBatch {
		out = s.buf
		s.buf = nil
	}
	s.mu.Unlock()
	if out != nil {
		t.sink.Write(out)
	}
}

// Flush drains every shard buffer to the sink. The engine calls it at the
// end of each run so sinks see a complete picture.
func (t *Tracer) Flush() {
	if t == nil || t.sink == nil {
		return
	}
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		out := s.buf
		s.buf = nil
		s.mu.Unlock()
		if len(out) > 0 {
			t.sink.Write(out)
		}
	}
}

// MultiSink fans writes out to several sinks.
func MultiSink(sinks ...Sink) Sink {
	out := make(multiSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

type multiSink []Sink

func (m multiSink) Write(events []Event) {
	for _, s := range m {
		s.Write(events)
	}
}
