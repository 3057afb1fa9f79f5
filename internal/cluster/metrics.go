package cluster

import "parajoin/internal/metrics"

// The parajoin_cluster_* metric family. Handoffs are labeled by how the
// partition reached its new owner: "direct" (pushed from the coordinator's
// authoritative store over the member's link) or "cached" (the new owner
// already held the partition with the right checksum — the rejoin fast
// path — so no bytes moved at all).
var (
	membersGauge = metrics.Default.Gauge("parajoin_cluster_members",
		"Live members of the elastic cluster.")
	catalogVersionGauge = metrics.Default.Gauge("parajoin_cluster_catalog_version",
		"Current partition-catalog version (bumped on every membership or data change).")
	resizesTotal = metrics.Default.Counter("parajoin_cluster_resizes_total",
		"Membership changes that triggered a rebalance and catalog bump.")
	deathsTotal = metrics.Default.Counter("parajoin_cluster_member_deaths_total",
		"Members declared dead after missed heartbeats or a broken connection.")
	rebalancedBytes = metrics.Default.Counter("parajoin_cluster_rebalanced_bytes_total",
		"Segment bytes pushed to members by partition handoffs.")

	handoffsDirect = metrics.Default.Counter("parajoin_cluster_handoffs_total",
		"Partition handoffs, by transfer path.", metrics.Label{Name: "path", Value: "direct"})
	handoffsCached = metrics.Default.Counter("parajoin_cluster_handoffs_total",
		"Partition handoffs, by transfer path.", metrics.Label{Name: "path", Value: "cached"})

	// Fragment dispatch (distributed execution). Member-side counters track
	// work actually performed on data nodes; dispatcher-side counters track
	// what the coordinator pushed out and what came back.
	fragPrepares = metrics.Default.Counter("parajoin_cluster_fragment_prepares_total",
		"Per-generation engine runtimes built on members when they adopt a catalog version.")
	fragRunsServed = metrics.Default.Counter("parajoin_cluster_fragments_served_total",
		"Operator fragments executed to completion on members.")
	fragRunErrors = metrics.Default.Counter("parajoin_cluster_fragment_errors_total",
		"Fragment executions that failed on a member (including retryable generation mismatches).")
	fragRowsStreamed = metrics.Default.Counter("parajoin_cluster_fragment_result_rows_total",
		"Result tuples streamed from members back to the coordinator.")

	fragDispatched = metrics.Default.Counter("parajoin_cluster_fragments_dispatched_total",
		"Operator fragments the coordinator pushed to members.")
	fragDispatchErrors = metrics.Default.Counter("parajoin_cluster_fragment_dispatch_errors_total",
		"Fragment dispatches that failed (member unreachable, refused, or mid-query death).")
	fragResultBytes = metrics.Default.Counter("parajoin_cluster_fragment_result_bytes_total",
		"Colbatch bytes of fragment results received by the coordinator.")
	distributedQueries = metrics.Default.Counter("parajoin_cluster_distributed_queries_total",
		"Queries executed by fragment dispatch instead of the coordinator-local engine.")
)
