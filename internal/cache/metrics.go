package cache

import "parajoin/internal/metrics"

// Process-wide cache metrics on the default registry (served at /metrics).
// Counters aggregate across every cache instance in the process; the
// gauges track current residency via +/- deltas, so they also sum
// correctly across instances.
var (
	resultHits = metrics.Default.Counter("parajoin_cache_result_hits_total",
		"Result-cache hits: queries answered without executing.")
	resultMisses = metrics.Default.Counter("parajoin_cache_result_misses_total",
		"Result-cache misses.")
	resultEvictions = metrics.Default.Counter("parajoin_cache_result_evictions_total",
		"Result-cache evictions: LRU tuple-budget pressure plus stale-epoch invalidations.")
	resultTuples = metrics.Default.Gauge("parajoin_cache_result_tuples",
		"Result-cache resident tuples.")
	resultBytes = metrics.Default.Gauge("parajoin_cache_result_bytes",
		"Result-cache resident bytes (8 bytes per value, the spill convention).")
)
