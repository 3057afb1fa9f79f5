// Package cluster implements elastic membership for parajoin: a coordinator
// that admits and monitors workers over TCP, a rendezvous-hashed assignment
// of persisted hash partitions (internal/partstore) to live member names,
// and checksum-verified handoffs that move partitions when the membership
// changes.
//
// The design splits responsibilities the way the paper's architecture does:
// the coordinator owns the authoritative partition store and the planning
// path, while members are durable data nodes that each persist their slice
// of every relation. Ownership is a pure function of the live member names
// (highest-random-weight hashing), so a membership change moves only ~1/N of
// the slots, and a replacement process started under its predecessor's name
// re-owns exactly the predecessor's slice — usually without moving a byte,
// because the hello message carries a checksummed inventory of what the
// rejoining store already holds.
//
// Each member has one connection to the coordinator, its link, and
// everything between the two travels on it: heartbeats, partition puts and
// releases, catalog versions, and fragments. Requests are multiplexed by ID
// on a wire.Link, which finishes each exactly once (proto.go). A partition
// is always pushed from the coordinator's authoritative store, and its
// previous owner releases it only after every new owner has stored a
// checksum-verified copy; puts are idempotent and the assignment names
// exactly one owner per slot, so a death mid-rebalance can neither lose nor
// duplicate a partition.
//
// On every membership change the coordinator bumps the catalog version,
// broadcasts it, and re-derives HyperCube shares for the new worker count
// (ReDerive); the same computation backs cmd/hcconfig -nodes-after.
//
// # Distributed execution
//
// Beyond holding data, members execute queries. When a member adopts a
// catalog version it builds that generation's engine runtime: a single-worker
// partial engine over its rendezvous-assigned slots, with a TCP exchange
// listener whose address the version reply carries (fragment.go). The
// coordinator plans a query into engine rounds, and a Dispatcher sends one
// operator fragment per live member over its link (dispatch.go):
//
//   - frag-run: the member receives the serialized rounds plus every
//     peer's exchange address, runs its fragment in its own goroutine
//     (workers shuffle tuples directly member-to-member, never through the
//     coordinator), and streams its result back in columnar batches
//     (frag-rows) followed by a frag-done trailer with the schema and the
//     engine report.
//   - frag-cancel: aborts the run; the dispatcher sends it when the query
//     is canceled or a sibling fragment failed.
//
// Every dispatch is guarded by the catalog version and the membership: a
// dispatcher whose members' runtimes are at another generation, or were
// built for another member list, refuses with a retryable error rather
// than compute on stale partitions, and so does a member. Any dispatch failure — a dead member or
// link, a refused generation — wraps engine.ErrTransport, which the serving
// layer's retry budget re-dispatches after the coordinator's next rebuild.
// A link has no resend of its own: a broken link is a member death, and
// the query is simply run again. The member-to-member exchange follows the
// same rule (engine.TCPTransport).
//
// The coordinator concatenates fragment results in member (worker) order,
// so a distributed answer is byte-identical to the coordinator-local run
// of the same plan over the same generation. See DESIGN.md, "Distributed
// execution", for the full lifecycle and the merge-order invariant.
package cluster
