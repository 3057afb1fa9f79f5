package engine

import (
	"fmt"
	"io"
	"time"

	"parajoin/internal/metrics"
	"parajoin/internal/rel"
	"parajoin/internal/trace"
)

// spanOp is the tracing shim compile wraps every operator in when the run
// has a tracer: it counts rows emitted and inclusive wall time (open plus
// every next, children included) and emits one KindOp event per worker when
// the operator closes. With tracing disabled compile skips the wrapper
// entirely, so the operator hot path pays nothing.
type spanOp struct {
	in    operator
	t     *task
	id    int
	label string

	rows    int64
	dur     time.Duration
	emitted bool
}

func (o *spanOp) schema() rel.Schema { return o.in.schema() }

func (o *spanOp) open() error {
	start := time.Now()
	err := o.in.open()
	o.dur += time.Since(start)
	return err
}

func (o *spanOp) next() (rel.Batch, error) {
	start := time.Now()
	b, err := o.in.next()
	o.dur += time.Since(start)
	o.rows += int64(b.Len())
	if err == io.EOF {
		o.emit()
	}
	return b, err
}

func (o *spanOp) close() error {
	err := o.in.close()
	o.emit() // error paths never reach EOF; close is the backstop
	return err
}

func (o *spanOp) emit() {
	if o.emitted {
		return
	}
	o.emitted = true
	e := o.t.ex
	e.tracer.Emit(trace.Event{
		Kind: trace.KindOp, Run: e.epoch, Worker: o.t.worker,
		Exchange: o.t.exchange, Op: o.id, Name: o.label,
		Tuples: o.rows, Dur: o.dur,
	})
}

// opLabel names a plan node in trace events and EXPLAIN ANALYZE output.
func opLabel(n Node) string {
	switch v := n.(type) {
	case Scan:
		return "scan " + v.Table
	case Select:
		return "select"
	case Project:
		if v.Dedup {
			return "project distinct"
		}
		return "project"
	case HashJoin:
		return "hash join"
	case SemiJoin:
		return "semijoin"
	case Count:
		return "count"
	case Tributary:
		return "tributary " + v.Query.Name
	case Recv:
		return fmt.Sprintf("recv exchange %d", v.Exchange)
	default:
		return fmt.Sprintf("%T", n)
	}
}

// live holds the process-wide engine counters, registered in the metrics
// registry (scraped at /metrics). They aggregate across every cluster in
// the process and update at batch granularity, so the atomic traffic is
// negligible next to the work it measures.
var live = struct {
	runsStarted    *metrics.Counter
	runsCompleted  *metrics.Counter
	activeRuns     *metrics.Gauge
	tuplesSent     *metrics.Counter
	tuplesReceived *metrics.Counter
	batchesSent    *metrics.Counter
	batchesRecv    *metrics.Counter
	bytesSent      *metrics.Counter
	bytesRecv      *metrics.Counter
	queueDepth     *metrics.Gauge
	// Frames dropped because their run's epoch was already released.
	netStragglerFrames *metrics.Counter
}{
	runsStarted:   metrics.Default.Counter("parajoin_engine_runs_started_total", "Query runs started."),
	runsCompleted: metrics.Default.Counter("parajoin_engine_runs_completed_total", "Query runs finished (any outcome)."),
	activeRuns:    metrics.Default.Gauge("parajoin_engine_runs_active", "Query runs currently executing."),
	tuplesSent: metrics.Default.Counter("parajoin_exchange_tuples_total",
		"Tuples routed through exchanges.", metrics.Label{Name: "dir", Value: "sent"}),
	tuplesReceived: metrics.Default.Counter("parajoin_exchange_tuples_total",
		"Tuples routed through exchanges.", metrics.Label{Name: "dir", Value: "received"}),
	batchesSent: metrics.Default.Counter("parajoin_exchange_batches_total",
		"Exchange batches moved.", metrics.Label{Name: "dir", Value: "sent"}),
	batchesRecv: metrics.Default.Counter("parajoin_exchange_batches_total",
		"Exchange batches moved.", metrics.Label{Name: "dir", Value: "received"}),
	bytesSent: metrics.Default.Counter("parajoin_exchange_bytes_total",
		"Exchange payload bytes moved.", metrics.Label{Name: "dir", Value: "sent"}),
	bytesRecv: metrics.Default.Counter("parajoin_exchange_bytes_total",
		"Exchange payload bytes moved.", metrics.Label{Name: "dir", Value: "received"}),
	queueDepth: metrics.Default.Gauge("parajoin_exchange_queue_depth",
		"Batches enqueued in exchange channels right now."),
	netStragglerFrames: metrics.Default.Counter("parajoin_tcp_straggler_frames_total",
		"Frames for an already released epoch, dropped on arrival."),
}
