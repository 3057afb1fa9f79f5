package server

import (
	"time"

	"parajoin/internal/metrics"
	"parajoin/internal/wire"
)

// Serving-layer metrics. The per-outcome end-to-end histograms are
// pre-registered for every wire code (plus "ok") so the whole family is
// visible on /metrics from process start and the completion path is a map
// lookup, not a registration.
var queryMetrics = struct {
	seconds   map[string]*metrics.Histogram // end-to-end, by outcome
	queueWait *metrics.Histogram
	exec      *metrics.Histogram
	retries   *metrics.Counter
	inflight  *metrics.Gauge
	slow      *metrics.Counter
}{
	seconds: func() map[string]*metrics.Histogram {
		out := make(map[string]*metrics.Histogram)
		for _, outcome := range []string{
			"ok", wire.CodeOverloaded, wire.CodeDraining, wire.CodeCanceled,
			wire.CodeDeadline, wire.CodeOOM, wire.CodeSpillBudget, wire.CodeClosed,
			wire.CodeBadRequest, wire.CodeRetriesExhausted, wire.CodeInternal,
			wire.CodeUnsupportedFrame, wire.CodeTooLarge,
		} {
			out[outcome] = metrics.Default.Histogram("parajoin_query_seconds",
				"End-to-end served query latency (admission wait, planning, every execution attempt, backoffs), by outcome.",
				metrics.DurationBuckets, metrics.Label{Name: "outcome", Value: outcome})
		}
		return out
	}(),
	queueWait: metrics.Default.Histogram("parajoin_query_queue_wait_seconds",
		"Time queries spent waiting for an admission slot (summed across attempts).",
		metrics.DurationBuckets),
	exec: metrics.Default.Histogram("parajoin_query_exec_seconds",
		"Wall time of one query execution attempt (planning included).",
		metrics.DurationBuckets),
	retries: metrics.Default.Counter("parajoin_query_retries_total",
		"Automatic query re-executions after retryable transport failures."),
	inflight: metrics.Default.Gauge("parajoin_queries_inflight",
		"Served queries currently between admission request and response."),
	slow: metrics.Default.Counter("parajoin_slow_queries_total",
		"Queries that crossed the slow-query threshold and were written to the slow log."),
}

// preparedStmts tracks live server-side prepared statements across all
// sessions in the process.
var preparedStmts = metrics.Default.Gauge("parajoin_prepared_statements",
	"Prepared statements currently registered across all client sessions.")

// observeQueryDone records one finished query's end-to-end latency under its
// outcome label. Unknown outcomes (future wire codes) register on demand.
func observeQueryDone(outcome string, elapsed time.Duration) {
	h := queryMetrics.seconds[outcome]
	if h == nil {
		h = metrics.Default.Histogram("parajoin_query_seconds",
			"End-to-end served query latency (admission wait, planning, every execution attempt, backoffs), by outcome.",
			metrics.DurationBuckets, metrics.Label{Name: "outcome", Value: outcome})
	}
	h.ObserveDuration(elapsed)
}
