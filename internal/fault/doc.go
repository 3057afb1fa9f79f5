// Package fault is parajoin's deterministic fault-injection subsystem. A
// Plan is a seeded list of rules — connection drops, receive errors,
// latency stalls, worker crash-at-barrier events — selectable by exchange,
// worker, and nth matching call. An Injector evaluates the plan against a
// stream of transport operations with no wall-clock or global randomness in
// the hot path: every probabilistic decision is a pure hash of (seed, rule,
// exchange, worker, call number), so the same plan against the same
// execution produces the same faults, run after run, process after process.
// Per-stream call counters persist across re-executions, which is what
// makes single-retry soak tests deterministic.
//
// Plans wrap a cluster's Transport (see Wrap in transport.go) and are
// usable from two entry points: engine/server tests and the
// `parajoind -fault-plan <spec>` dev flag. The plan
// grammar, the retry loop the injected faults exercise, and the
// determinism contract they rest on (a re-executed query must reproduce
// identical rows — including under intra-worker parallel joins) are
// specified in DESIGN.md's "Fault tolerance" and "Intra-worker
// parallelism" sections.
package fault
