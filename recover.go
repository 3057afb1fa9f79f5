package parajoin

import (
	"parajoin/internal/engine"
	"parajoin/internal/fault"
)

// ErrTransport marks retryable transport-layer failures: a failed dial or
// write, a lost exchange connection, a stream that arrived out of sequence
// or corrupt, or an injected fault standing in for one. The TCP transport
// repairs none of them: because HyperCube plans shuffle in a single round
// and keep no cross-query state, a query that fails with ErrTransport can
// simply be run again — the serving layer does exactly that (see
// server.Config.RetryBudget).
var ErrTransport = engine.ErrTransport

// Retryable reports whether err is a transient transport failure that
// re-executing the query could cure. Terminal conditions — out-of-memory,
// spill-budget, closed database, context cancellation — are never
// retryable.
func Retryable(err error) bool { return engine.Retryable(err) }

// WithFaultPlan interposes a deterministic fault injector between the
// engine and its transport: every Send/CloseSend/Recv consults the plan and
// may be dropped, stalled, or failed according to its seeded rules. Injected
// errors classify as retryable transport failures (errors.Is ErrTransport),
// so they exercise exactly the recovery paths real network faults take.
// A nil plan is a no-op.
func WithFaultPlan(p *fault.Plan) Option {
	return func(db *DB) {
		if p == nil {
			return
		}
		// Chaos runs may fail, stall, or retry nondeterministically, so
		// they are barred from the result cache in both directions.
		db.chaos = true
		inj := p.NewInjector()
		db.cluster.WrapTransport(func(t engine.Transport) engine.Transport {
			return fault.Wrap(t, inj)
		})
	}
}
