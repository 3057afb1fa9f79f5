package engine

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"time"

	"parajoin/internal/metrics"
	"parajoin/internal/rel"
	"parajoin/internal/trace"
)

// Round is one communication round of a multi-round plan (the Yannakakis
// semijoin reduction runs many). A non-empty StoreAs materializes the
// round's per-worker result fragments for later rounds to Scan; the final
// round leaves StoreAs empty and its result is the query answer.
//
// StoreAs results live in run-private storage, not the cluster's shared
// maps: concurrent runs of the same plan never see each other's
// intermediates, and nothing needs to be dropped afterwards.
type Round struct {
	Name    string
	Plan    *Plan
	StoreAs string
}

// RunOpts tunes one execution. The zero value inherits the cluster's
// defaults.
type RunOpts struct {
	// Tracer receives this run's span events; nil falls back to the
	// cluster's Tracer.
	Tracer *trace.Tracer
	// MaxLocalTuples overrides the cluster's per-worker materialization
	// budget for this run: 0 inherits the cluster's, a negative value lifts
	// the cap entirely. The serving layer uses it to carve per-query budgets
	// out of the cluster-wide limit.
	MaxLocalTuples int64
	// Spill selects this run's spill policy; SpillDefault inherits the
	// cluster's (whose own default is SpillOff — the legacy hard-OOM
	// behavior).
	Spill SpillPolicy
	// SpillDir overrides the cluster's spill directory ("" inherits).
	SpillDir string
	// MaxSpillBytes overrides the cluster's hard cap on this run's spilled
	// bytes: 0 inherits, a negative value lifts the cap.
	MaxSpillBytes int64
	// Parallelism overrides the cluster's intra-worker join parallelism for
	// this run: 0 inherits, a negative value runs the join as one shard, K>0
	// allows up to K concurrent sub-joins per worker. Unlike the limits
	// above, a Remote runner receives it unresolved, because auto (0)
	// depends on the cores of the host that executes the join.
	Parallelism int
	// Epoch, when > 0, pins the run's exchange-id namespace instead of
	// drawing one from the cluster's internal counter; round i of a
	// multi-round plan uses Epoch+i. Distributed execution needs it: every
	// data node of a query shares one TCP exchange mesh, so all of them
	// must agree on the epoch, and concurrent queries must not collide —
	// the coordinator allocates each query a disjoint block. 0 (the
	// default) keeps the process-local counter.
	Epoch int64
}

func (c *Cluster) runTracer(o RunOpts) *trace.Tracer {
	if o.Tracer != nil {
		return o.Tracer
	}
	return c.Tracer
}

func (c *Cluster) runMemLimit(o RunOpts) int64 {
	switch {
	case o.MaxLocalTuples > 0:
		return o.MaxLocalTuples
	case o.MaxLocalTuples < 0:
		return 0
	}
	return c.MaxLocalTuples
}

func (c *Cluster) runSpillPolicy(o RunOpts) SpillPolicy {
	if o.Spill != SpillDefault {
		return o.Spill
	}
	return c.SpillPolicy
}

func (c *Cluster) runSpillDir(o RunOpts) string {
	if o.SpillDir != "" {
		return o.SpillDir
	}
	return c.SpillDir
}

func (c *Cluster) runSpillBytes(o RunOpts) int64 {
	switch {
	case o.MaxSpillBytes > 0:
		return o.MaxSpillBytes
	case o.MaxSpillBytes < 0:
		return 0
	}
	return c.MaxSpillBytes
}

func (c *Cluster) runParallelism(o RunOpts) int {
	k := c.Parallelism
	switch {
	case o.Parallelism > 0:
		k = o.Parallelism
	case o.Parallelism < 0:
		return 1
	}
	if k == 0 {
		return defaultParallelism(len(c.hosted))
	}
	return max(k, 1)
}

// remoteOpts resolves this cluster's limits into opts for a Remote runner,
// whose members would fill zeros from their own defaults: an unlimited cap
// travels as -1 (lifted), an unset policy as SpillOff. SpillDir (a local
// path) and Parallelism (auto depends on the executing host) stay as given.
func (c *Cluster) remoteOpts(o RunOpts) RunOpts {
	o.MaxLocalTuples = cmp.Or(c.runMemLimit(o), -1)
	o.MaxSpillBytes = cmp.Or(c.runSpillBytes(o), -1)
	o.Spill = cmp.Or(c.runSpillPolicy(o), SpillOff)
	return o
}

// defaultParallelism sizes the auto sub-join pool: the hosted workers of a
// run already execute concurrently, so each gets an even share of the
// host's cores, clamped to [1, 8]. On a machine with fewer cores than
// hosted workers this resolves to 1 — each join one shard, run inline — so
// small hosts pay no coordination overhead by default.
func defaultParallelism(hosted int) int {
	if hosted < 1 {
		hosted = 1
	}
	k := runtime.GOMAXPROCS(0) / hosted
	return min(max(k, 1), 8)
}

// RunRounds executes rounds in order, materializing intermediate results
// and merging metrics. The last round must have StoreAs == "".
func (c *Cluster) RunRounds(ctx context.Context, rounds []Round) (*rel.Relation, *Report, error) {
	return c.RunRoundsOpts(ctx, rounds, RunOpts{})
}

// RunRoundsTraced is RunRounds with an explicit tracer for this execution,
// overriding the cluster's default — EXPLAIN ANALYZE uses it to capture one
// run's events without re-configuring the cluster.
func (c *Cluster) RunRoundsTraced(ctx context.Context, rounds []Round, tracer *trace.Tracer) (*rel.Relation, *Report, error) {
	return c.RunRoundsOpts(ctx, rounds, RunOpts{Tracer: tracer})
}

// RunRoundsOpts is RunRounds with per-run options.
func (c *Cluster) RunRoundsOpts(ctx context.Context, rounds []Round, opts RunOpts) (*rel.Relation, *Report, error) {
	if len(rounds) == 0 {
		return nil, nil, fmt.Errorf("engine: no rounds")
	}
	if rounds[len(rounds)-1].StoreAs != "" {
		return nil, nil, fmt.Errorf("engine: final round must not store its result")
	}
	if c.Remote != nil {
		if c.closed.Load() {
			return nil, nil, ErrClosed
		}
		return c.Remote.RunRounds(ctx, rounds, c.remoteOpts(opts))
	}
	// temps is this run's private relation namespace: scans resolve here
	// before the shared cluster storage.
	temps := make(map[string][]*rel.Relation)

	prog := metrics.QueryFrom(ctx)
	var combined *Report
	for i, round := range rounds {
		if round.Name != "" {
			prog.SetStage(fmt.Sprintf("executing %s (round %d/%d)", round.Name, i+1, len(rounds)))
		} else {
			prog.SetStage(fmt.Sprintf("executing round %d/%d", i+1, len(rounds)))
		}
		ropts := opts
		if opts.Epoch > 0 {
			// Pinned epochs advance per round so each round keeps a private
			// exchange-id namespace, same as counter-drawn epochs do.
			ropts.Epoch = opts.Epoch + int64(i)
		}
		frags, report, err := c.runFragments(ctx, round.Plan, ropts, temps)
		combined = mergeReports(combined, report)
		if err != nil {
			return nil, combined, fmt.Errorf("engine: round %d (%s): %w", i, round.Name, err)
		}
		if round.StoreAs != "" {
			for _, f := range frags {
				if f != nil { // unhosted workers have no fragment here
					f.Name = round.StoreAs
				}
			}
			temps[round.StoreAs] = frags
			continue
		}
		return rel.Concat("result", frags), combined, nil
	}
	panic("unreachable")
}

// mergeReports folds b into a: traffic counters append (exchange ids are
// offset to stay unique), time counters add, wall times add (rounds run
// sequentially).
func mergeReports(a, b *Report) *Report {
	if b == nil {
		return a
	}
	if a == nil {
		return b
	}
	out := &Report{
		Workers:         a.Workers,
		WallTime:        a.WallTime + b.WallTime,
		CPUTime:         a.CPUTime + b.CPUTime,
		BusyTime:        append([]time.Duration(nil), a.BusyTime...),
		SortTime:        append([]time.Duration(nil), a.SortTime...),
		JoinTime:        append([]time.Duration(nil), a.JoinTime...),
		Processed:       append([]int64(nil), a.Processed...),
		Sorted:          append([]int64(nil), a.Sorted...),
		Seeks:           append([]int64(nil), a.Seeks...),
		BytesSent:       a.BytesSent + b.BytesSent,
		BytesReceived:   a.BytesReceived + b.BytesReceived,
		BatchesSent:     a.BatchesSent + b.BatchesSent,
		BatchesReceived: a.BatchesReceived + b.BatchesReceived,
		MaxQueueDepth:   max(a.MaxQueueDepth, b.MaxQueueDepth),

		PeakResidentTuples: append([]int64(nil), a.PeakResidentTuples...),
		SpilledBytes:       a.SpilledBytes + b.SpilledBytes,
		SpillSegments:      a.SpillSegments + b.SpillSegments,
		Spills:             a.Spills + b.Spills,

		JoinTasks:    a.JoinTasks + b.JoinTasks,
		JoinStealMax: max(a.JoinStealMax, b.JoinStealMax),

		RemoteFragments: max(a.RemoteFragments, b.RemoteFragments),
		RemoteMembers:   a.RemoteMembers,
	}
	if len(out.RemoteMembers) == 0 {
		out.RemoteMembers = b.RemoteMembers
	}
	for i := range out.BusyTime {
		out.BusyTime[i] += b.BusyTime[i]
		out.SortTime[i] += b.SortTime[i]
		out.JoinTime[i] += b.JoinTime[i]
		out.Processed[i] += b.Processed[i]
		out.Sorted[i] += b.Sorted[i]
		out.Seeks[i] += b.Seeks[i]
	}
	// Rounds free their state between executions, so the run's peak is the
	// max across rounds, not the sum.
	for i := range out.PeakResidentTuples {
		out.PeakResidentTuples[i] = max(out.PeakResidentTuples[i], b.PeakResidentTuples[i])
	}
	out.Exchanges = append(out.Exchanges, a.Exchanges...)
	offset := 0
	for _, e := range a.Exchanges {
		if e.ID >= offset {
			offset = e.ID + 1
		}
	}
	for _, e := range b.Exchanges {
		e.ID += offset
		out.Exchanges = append(out.Exchanges, e)
	}
	return out
}
