package engine

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"parajoin/internal/trace"
)

// ExplainAnalyze renders an executed plan annotated with what actually
// happened: per-operator row counts and inclusive wall time (slowest
// worker), per-exchange tuples sent with producer and consumer skew, and
// the Tributary sort/join phase split. rounds is the plan that ran, events
// the trace it emitted (a Collector or Ring snapshot covering the whole
// execution), report the merged metrics RunRounds returned.
//
// Operator identity is positional: ids are assigned by the same postorder
// traversal compile uses (children before parents; HashJoin/SemiJoin left
// then right; Tributary inputs in sorted-alias order), numbering restarting
// for each exchange-producer tree and for the root tree. Rounds are matched
// to trace runs by epoch order: the i-th round is the i-th distinct run id.
func ExplainAnalyze(rounds []Round, events []trace.Event, report *Report) string {
	x := newExplainIndex(events, report)
	var b strings.Builder
	for i, round := range rounds {
		run, ok := x.runForRound(i)
		if len(rounds) > 1 {
			fmt.Fprintf(&b, "round %d (%s)", i, round.Name)
			if round.StoreAs != "" {
				fmt.Fprintf(&b, " -> store %s", round.StoreAs)
			}
			b.WriteByte('\n')
		}
		if !ok {
			run = -1 // no trace for this round: render the bare tree
		}
		x.renderRound(&b, round.Plan, run)
	}
	if report != nil {
		fmt.Fprintf(&b, "total: %s\n", report.String())
		if report.BytesSent > 0 || report.BytesReceived > 0 {
			fmt.Fprintf(&b, "transport: %d bytes sent, %d received (%d/%d batches, max queue depth %d)\n",
				report.BytesSent, report.BytesReceived,
				report.BatchesSent, report.BatchesReceived, report.MaxQueueDepth)
		}
	}
	return b.String()
}

// opAgg aggregates one operator's (or exchange producer's) events across
// workers.
type opAgg struct {
	rows    int64
	maxRows int64
	maxDur  time.Duration
	workers int
}

func (a *opAgg) add(tuples int64, d time.Duration) {
	a.rows += tuples
	if tuples > a.maxRows {
		a.maxRows = tuples
	}
	if d > a.maxDur {
		a.maxDur = d
	}
	a.workers++
}

type opKey struct {
	run  int64
	tree int // exchange id of the producer tree, -1 for the root tree
	op   int
}

type sendKey struct {
	run      int64
	exchange int
}

type phaseKey struct {
	run  int64
	tree int
	name string
}

type explainIndex struct {
	workers int
	runs    []int64 // distinct run ids, ascending = round order
	ops     map[opKey]*opAgg
	sends   map[sendKey]*opAgg
	phases  map[phaseKey]*opAgg
	// consumers maps an exchange (within a run) to its Recv operator's
	// aggregate — filled in by renderRound's id-assignment walk, since only
	// the tree knows which op consumes which exchange.
	consumers map[sendKey]*opAgg
}

func newExplainIndex(events []trace.Event, report *Report) *explainIndex {
	x := &explainIndex{
		ops:       make(map[opKey]*opAgg),
		sends:     make(map[sendKey]*opAgg),
		phases:    make(map[phaseKey]*opAgg),
		consumers: make(map[sendKey]*opAgg),
	}
	if report != nil {
		x.workers = report.Workers
	}
	seen := make(map[int64]bool)
	for _, e := range events {
		if !seen[e.Run] {
			seen[e.Run] = true
			x.runs = append(x.runs, e.Run)
		}
		if e.Worker+1 > x.workers {
			x.workers = e.Worker + 1
		}
		switch e.Kind {
		case trace.KindOp:
			k := opKey{e.Run, e.Exchange, e.Op}
			a := x.ops[k]
			if a == nil {
				a = &opAgg{}
				x.ops[k] = a
			}
			a.add(e.Tuples, e.Dur)
		case trace.KindSend:
			k := sendKey{e.Run, e.Exchange}
			a := x.sends[k]
			if a == nil {
				a = &opAgg{}
				x.sends[k] = a
			}
			a.add(e.Tuples, e.Dur)
		case trace.KindPhase:
			k := phaseKey{e.Run, e.Exchange, e.Name}
			a := x.phases[k]
			if a == nil {
				a = &opAgg{}
				x.phases[k] = a
			}
			a.add(e.Tuples, e.Dur)
		}
	}
	sort.Slice(x.runs, func(i, j int) bool { return x.runs[i] < x.runs[j] })
	return x
}

func (x *explainIndex) runForRound(i int) (int64, bool) {
	if i < len(x.runs) {
		return x.runs[i], true
	}
	return 0, false
}

func (x *explainIndex) renderRound(b *strings.Builder, plan *Plan, run int64) {
	// Render every tree first: the walk assigns operator ids and records
	// which Recv consumes which exchange, which the exchange header lines
	// need before their trees are printed.
	producers := make([]string, len(plan.Exchanges))
	for i := range plan.Exchanges {
		producers[i] = x.renderTree(plan.Exchanges[i].Input, run, plan.Exchanges[i].ID)
	}
	root := x.renderTree(plan.Root, run, -1)

	for i := range plan.Exchanges {
		spec := &plan.Exchanges[i]
		fmt.Fprintf(b, "  exchange %d [%s] %s", spec.ID, spec.RouteLabel(), spec.Name)
		if s := x.sends[sendKey{run, spec.ID}]; s != nil {
			fmt.Fprintf(b, "  (sent=%d producer-skew=%.2f", s.rows, skew(s.maxRows, s.rows, x.workers))
			if c := x.consumers[sendKey{run, spec.ID}]; c != nil {
				fmt.Fprintf(b, " consumer-skew=%.2f", skew(c.maxRows, c.rows, x.workers))
			}
			fmt.Fprintf(b, " time=%v)", s.maxDur)
		}
		b.WriteByte('\n')
		b.WriteString(producers[i])
	}
	b.WriteString("  root\n")
	b.WriteString(root)
}

// renderTree renders one operator tree with actuals. Ids are assigned
// postorder (children first) to mirror compile, but lines print parent
// first, so children render into their own buffers before the parent line
// is built.
func (x *explainIndex) renderTree(n Node, run int64, tree int) string {
	text, _ := x.renderNode(n, run, tree, 2, new(int))
	return text
}

func (x *explainIndex) renderNode(n Node, run int64, tree, depth int, seq *int) (string, int) {
	var children strings.Builder
	child := func(c Node) {
		t, _ := x.renderNode(c, run, tree, depth+1, seq)
		children.WriteString(t)
	}
	switch v := n.(type) {
	case Select:
		child(v.Input)
	case Project:
		child(v.Input)
	case HashJoin:
		child(v.Left)
		child(v.Right)
	case SemiJoin:
		child(v.Left)
		child(v.Right)
	case Count:
		child(v.Input)
	case Tributary:
		aliases := make([]string, 0, len(v.Inputs))
		for alias := range v.Inputs {
			aliases = append(aliases, alias)
		}
		sort.Strings(aliases)
		for _, alias := range aliases {
			child(v.Inputs[alias])
		}
	}
	id := *seq
	*seq++

	var line strings.Builder
	line.WriteString(strings.Repeat("  ", depth))
	line.WriteString(explainLabel(n))
	agg := x.ops[opKey{run, tree, id}]
	if agg != nil {
		fmt.Fprintf(&line, "  (rows=%d time=%v", agg.rows, agg.maxDur)
		if _, ok := n.(Tributary); ok {
			if p := x.phases[phaseKey{run, tree, "sort"}]; p != nil {
				fmt.Fprintf(&line, " sort=%v", p.maxDur)
			}
			if p := x.phases[phaseKey{run, tree, "join"}]; p != nil {
				fmt.Fprintf(&line, " join=%v", p.maxDur)
			}
		}
		line.WriteByte(')')
	}
	line.WriteByte('\n')
	if r, ok := n.(Recv); ok && agg != nil {
		x.consumers[sendKey{run, r.Exchange}] = agg
	}
	return line.String() + children.String(), id
}

// explainLabel names a node in EXPLAIN ANALYZE output — opLabel's short
// form plus the details the planner's Describe prints.
func explainLabel(n Node) string {
	switch v := n.(type) {
	case Select:
		parts := make([]string, len(v.Filters))
		for i, f := range v.Filters {
			if f.RightCol != "" {
				parts[i] = fmt.Sprintf("%s%s%s", f.Left, f.Op, f.RightCol)
			} else {
				parts[i] = fmt.Sprintf("%s%s%d", f.Left, f.Op, f.Const)
			}
		}
		return "select " + strings.Join(parts, " and ")
	case Project:
		label := "project " + strings.Join(v.Cols, ",")
		if len(v.As) > 0 {
			label += " as " + strings.Join(v.As, ",")
		}
		if v.Dedup {
			label += " distinct"
		}
		return label
	case HashJoin:
		return fmt.Sprintf("hash join on %v=%v", v.LeftCols, v.RightCols)
	case SemiJoin:
		return fmt.Sprintf("semijoin on %v=%v", v.LeftCols, v.RightCols)
	case Tributary:
		return fmt.Sprintf("tributary join %s order %v", v.Query.Name, v.Order)
	default:
		return opLabel(n)
	}
}

// RouteLabel names the exchange's routing policy, as EXPLAIN and
// planner.Describe print it.
func (spec ExchangeSpec) RouteLabel() string {
	switch spec.Kind {
	case RouteHash:
		return "hash(" + strings.Join(spec.HashCols, ",") + ")"
	case RouteBroadcast:
		return "broadcast"
	case RouteHyperCube:
		return "hypercube"
	}
	return "?"
}
