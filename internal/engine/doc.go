// Package engine is parajoin's shared-nothing parallel execution engine: N
// workers, each with private storage, exchanging tuples through a
// Transport. It plays the role Myria plays in the paper — the substrate the
// shuffle and join algorithms run on — and it meters exactly the quantities
// the paper's evaluation reports: tuples shuffled per exchange (with
// producer and consumer skew) and per-worker busy time.
//
// The engine is SPMD: every worker runs the same plan over its own
// fragment, and a plan's exchanges decide which tuples cross worker
// boundaries (hash routing for Repartition joins, HyperCube routing for
// multi-way joins, broadcast for small build sides). Workers are an
// abstraction over placement: one TCPTransport carries every exchange.
// NewCluster hosts all N workers in one process, where every batch is
// handed over in memory, while NewPartialCluster hosts any subset and
// reaches the rest over TCP — the same plan, the same worker indices, the
// same answer, whether the workers share a process or a datacenter.
// Operators and exchanges pass one batch type, rel.Batch: whoever gets a
// batch from an operator or the transport owns it, and once its rows are
// copied out may hand its storage to the cluster's batch store, which the
// routers and operators fill their batches from.
//
// # Distributed execution
//
// Plans serialize (EncodeRounds / DecodeRounds, serial.go) and RunOpts
// travels as JSON minus its coordinator-local tracer and spill directory,
// so a coordinator can plan once and ship each worker's fragment to a
// remote data node. A Cluster with a RemoteRunner installed delegates
// RunRounds to it wholesale; internal/cluster's Dispatcher implements the
// interface by streaming fragments to members and concatenating their
// results in worker order, which keeps distributed answers byte-identical
// to coordinator-local runs of the same plan. MergeDistributedReports sums
// the members' per-worker vectors, exchange rows included, into exactly
// the Report a local run produces, so traffic and skew derive the same way
// on both paths. See DESIGN.md, "Distributed execution".
//
// Failure handling is round-grained: ErrTransport-class errors mean a
// communication round died without side effects (shuffles are single
// rounds over immutable base relations), so Retryable callers simply
// re-execute; everything else — memory, spill budget, cancellation,
// closure — is terminal.
package engine
