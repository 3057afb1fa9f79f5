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
// execution), report the merged metrics RunRounds returned. Traffic and
// skew come from the report's exchange rows; the trace supplies times and
// operator row counts, so a run whose operators executed elsewhere (no
// local events) still shows its shuffles.
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
		x.renderRound(&b, i, round.Plan, run)
	}
	if report != nil {
		fmt.Fprintf(&b, "total: %s\n", report.String())
		if report.BatchesSent > 0 || report.BatchesReceived > 0 {
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
	rows   int64
	maxDur time.Duration
}

func (a *opAgg) add(tuples int64, d time.Duration) {
	a.rows += tuples
	if d > a.maxDur {
		a.maxDur = d
	}
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
	report *Report
	runs   []int64 // distinct run ids, ascending = round order
	ops    map[opKey]*opAgg
	sends  map[sendKey]*opAgg
	phases map[phaseKey]*opAgg
}

func newExplainIndex(events []trace.Event, report *Report) *explainIndex {
	x := &explainIndex{
		report: report,
		ops:    make(map[opKey]*opAgg),
		sends:  make(map[sendKey]*opAgg),
		phases: make(map[phaseKey]*opAgg),
	}
	seen := make(map[int64]bool)
	for _, e := range events {
		if !seen[e.Run] {
			seen[e.Run] = true
			x.runs = append(x.runs, e.Run)
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

func (x *explainIndex) renderRound(b *strings.Builder, round int, plan *Plan, run int64) {
	for i := range plan.Exchanges {
		spec := &plan.Exchanges[i]
		fmt.Fprintf(b, "  exchange %d [%s] %s", spec.ID, spec.RouteLabel(), spec.Name)
		var notes []string
		if e := x.exchange(round, spec.ID); e != nil {
			notes = append(notes, fmt.Sprintf("sent=%d producer-skew=%.2f consumer-skew=%.2f",
				e.TuplesSent(), e.ProducerSkew(), e.ConsumerSkew()))
		}
		if s := x.sends[sendKey{run, spec.ID}]; s != nil {
			notes = append(notes, fmt.Sprintf("time=%v", s.maxDur))
		}
		if len(notes) > 0 {
			fmt.Fprintf(b, "  (%s)", strings.Join(notes, " "))
		}
		b.WriteByte('\n')
		b.WriteString(x.renderTree(spec.Input, run, spec.ID))
	}
	b.WriteString("  root\n")
	b.WriteString(x.renderTree(plan.Root, run, -1))
}

// exchange returns the report's traffic row for exchange id of the given
// round, nil without a report.
func (x *explainIndex) exchange(round, id int) *ExchangeReport {
	if x.report == nil {
		return nil
	}
	for i, e := range x.report.Exchanges {
		if e.Round == round && e.ID == id {
			return &x.report.Exchanges[i]
		}
	}
	return nil
}

// renderTree renders one operator tree with actuals. Ids are assigned
// postorder (children first) to mirror compile, but lines print parent
// first, so children render into their own buffers before the parent line
// is built.
func (x *explainIndex) renderTree(n Node, run int64, tree int) string {
	return x.renderNode(n, run, tree, 2, new(int))
}

func (x *explainIndex) renderNode(n Node, run int64, tree, depth int, seq *int) string {
	var children strings.Builder
	child := func(c Node) {
		children.WriteString(x.renderNode(c, run, tree, depth+1, seq))
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
	return line.String() + children.String()
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
