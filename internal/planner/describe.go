package planner

import (
	"fmt"
	"sort"
	"strings"

	"parajoin/internal/engine"
)

// Describe renders a planned query as an indented physical-plan listing —
// the textual analogue of the paper's plan diagrams (Figures 5 and 7):
// each round's exchanges with their routing, and the operator tree that
// consumes them.
func Describe(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s", res.Config)
	if res.HC.Cells() > 0 && len(res.HC.Vars) > 0 {
		fmt.Fprintf(&b, "  hypercube %s (%d cells)", res.HC, res.HC.Cells())
	}
	if len(res.Order) > 0 {
		fmt.Fprintf(&b, "  variable order %v", res.Order)
	}
	b.WriteByte('\n')
	for i, round := range res.Rounds {
		if len(res.Rounds) > 1 {
			fmt.Fprintf(&b, "round %d (%s)", i, round.Name)
			if round.StoreAs != "" {
				fmt.Fprintf(&b, " -> store %s", round.StoreAs)
			}
			b.WriteByte('\n')
		}
		for _, ex := range round.Plan.Exchanges {
			fmt.Fprintf(&b, "  exchange %d [%s] %s\n", ex.ID, ex.RouteLabel(), ex.Name)
			describeNode(&b, ex.Input, 2)
		}
		fmt.Fprintf(&b, "  root\n")
		describeNode(&b, round.Plan.Root, 2)
	}
	return b.String()
}

func describeNode(b *strings.Builder, n engine.Node, depth int) {
	indent := strings.Repeat("  ", depth)
	switch v := n.(type) {
	case engine.Scan:
		fmt.Fprintf(b, "%sscan %s\n", indent, v.Table)
	case engine.Select:
		parts := make([]string, len(v.Filters))
		for i, f := range v.Filters {
			if f.RightCol != "" {
				parts[i] = fmt.Sprintf("%s%s%s", f.Left, f.Op, f.RightCol)
			} else {
				parts[i] = fmt.Sprintf("%s%s%d", f.Left, f.Op, f.Const)
			}
		}
		fmt.Fprintf(b, "%sselect %s\n", indent, strings.Join(parts, " and "))
		describeNode(b, v.Input, depth+1)
	case engine.Project:
		label := strings.Join(v.Cols, ",")
		if len(v.As) > 0 {
			label += " as " + strings.Join(v.As, ",")
		}
		if v.Dedup {
			label += " distinct"
		}
		fmt.Fprintf(b, "%sproject %s\n", indent, label)
		describeNode(b, v.Input, depth+1)
	case engine.HashJoin:
		fmt.Fprintf(b, "%shash join on %v=%v\n", indent, v.LeftCols, v.RightCols)
		describeNode(b, v.Left, depth+1)
		describeNode(b, v.Right, depth+1)
	case engine.SemiJoin:
		fmt.Fprintf(b, "%ssemijoin on %v=%v\n", indent, v.LeftCols, v.RightCols)
		describeNode(b, v.Left, depth+1)
		describeNode(b, v.Right, depth+1)
	case engine.Tributary:
		fmt.Fprintf(b, "%stributary join %s order %v\n", indent, v.Query.Name, v.Order)
		aliases := make([]string, 0, len(v.Inputs))
		for alias := range v.Inputs {
			aliases = append(aliases, alias)
		}
		sort.Strings(aliases)
		for _, alias := range aliases {
			fmt.Fprintf(b, "%s  input %s\n", indent, alias)
			describeNode(b, v.Inputs[alias], depth+2)
		}
	case engine.Recv:
		fmt.Fprintf(b, "%srecv exchange %d %v\n", indent, v.Exchange, []string(v.Schema))
	default:
		fmt.Fprintf(b, "%s%T\n", indent, n)
	}
}
