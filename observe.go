package parajoin

import (
	"context"
	"io"
	"net/http"

	"parajoin/internal/engine"
	"parajoin/internal/metrics"
	"parajoin/internal/trace"
)

// Tracer collects structured span events (per-run, per-exchange,
// per-operator, per-phase) from query execution. Create one with NewTracer
// and attach it with WithTracer; a nil Tracer — the default — disables
// tracing at zero cost on the operator hot path.
type Tracer = trace.Tracer

// TraceEvent is one span event; see the trace package for field semantics
// and the JSONL encoding.
type TraceEvent = trace.Event

// TraceSink receives batches of trace events. Implementations must be safe
// for concurrent use.
type TraceSink = trace.Sink

// TraceRing is a fixed-size in-memory event buffer that keeps the most
// recent events — the sink behind the /debug/trace endpoint.
type TraceRing = trace.Ring

// NewTracer creates a tracer writing to sink.
func NewTracer(sink TraceSink) *Tracer { return trace.New(sink) }

// NewJSONLSink creates a sink encoding events as JSON Lines to w.
func NewJSONLSink(w io.Writer) TraceSink { return trace.NewJSONLSink(w) }

// NewTraceRing creates a ring buffer sink holding the last n events.
func NewTraceRing(n int) *TraceRing { return trace.NewRing(n) }

// MultiTraceSink fans events out to several sinks.
func MultiTraceSink(sinks ...TraceSink) TraceSink { return trace.MultiSink(sinks...) }

// WithTracer attaches a tracer to every query the database runs.
func WithTracer(t *Tracer) Option {
	return func(db *DB) { db.cluster.Tracer = t }
}

// ExplainAnalyze executes the query under an explicit strategy with tracing
// forced on and returns the physical plan annotated with actuals: rows and
// wall time per operator (slowest worker), tuples sent with producer and
// consumer skew per exchange, Tributary sort/join phase times, and the
// run's transport byte totals. It is RunWithOptions with Explain set: the
// database's limits apply, the query's results are discarded, and any
// tracer attached with WithTracer still receives the events.
func (q *Query) ExplainAnalyze(ctx context.Context, s Strategy) (string, error) {
	res, err := q.RunWithOptions(ctx, RunOptions{Strategy: s, Explain: true})
	if err != nil {
		return "", err
	}
	return res.Stats.Explain, nil
}

// explainOpts resolves a run's engine options, attaching an event collector
// when RunOptions.Explain asks for an in-flight EXPLAIN ANALYZE capture. A
// tracer attached with WithTracer still receives the run's events.
func (db *DB) explainOpts(opts RunOptions) (engine.RunOpts, *trace.Collector) {
	eopts := opts.engineOpts()
	if !opts.Explain {
		return eopts, nil
	}
	col := trace.NewCollector()
	sink := trace.Sink(col)
	if t := db.cluster.Tracer; t.Enabled() {
		sink = trace.MultiSink(col, t.Sink())
	}
	eopts.Tracer = trace.New(sink)
	return eopts, col
}

// planSeconds is the planning-stage latency histogram (Auto resolution,
// share optimization, variable-order search) observed by every planFor.
var planSeconds = metrics.Default.Histogram("parajoin_query_plan_seconds",
	"Query planning latency: strategy resolution, share optimization, variable-order search.",
	metrics.DurationBuckets)

// MetricsHandler returns an http.Handler serving the process-wide metrics
// registry in the Prometheus text format — every parajoin subsystem
// (engine, transports, spill, serving layer) registers its counters and
// histograms there. internal/debug mounts it at /metrics; embedders can
// mount it on their own mux.
func MetricsHandler() http.Handler { return metrics.Handler() }

// WriteMetrics writes the process-wide metrics registry to w in the
// Prometheus text exposition format.
func WriteMetrics(w io.Writer) { metrics.Default.WritePrometheus(w) }
