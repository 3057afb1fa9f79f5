package planner

import (
	"fmt"

	"parajoin/internal/core"
	"parajoin/internal/engine"
	"parajoin/internal/rel"
)

// buildRS builds the regular-shuffle plan: a left-deep tree of binary
// joins, both sides of each join hash-partitioned on the step's shared
// variables, with the intermediate result pipelined straight into the next
// step's exchange. tj selects binary Tributary (sort-merge) joins instead
// of symmetric hash joins — the paper's RS_TJ.
func (b *builder) buildRS(res *Result, tj bool) error {
	orderIdx, err := b.greedyAtomOrder()
	if err != nil {
		return err
	}
	res.JoinOrder = orderIdx

	first := orderIdx[0]
	curNode := b.varNode(first)
	curSchema := b.atoms[first].varSchema()
	curVars := map[core.Var]bool{}
	for _, v := range b.atoms[first].vars {
		curVars[v] = true
	}

	for step, ai := range orderIdx[1:] {
		info := b.atoms[ai]
		shared := sharedVars(curVars, info.vars)
		if len(shared) == 0 {
			return fmt.Errorf("planner: no shared variables joining %s", info.atom)
		}
		cols := varNames(shared)
		// The regular shuffle partitions on a single attribute (the paper's
		// definition and the source of its skew); the local join still
		// matches on every shared variable — co-location on one of them is
		// sufficient for correctness.
		hashCols := cols[:1]
		seed := uint64(step)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d

		exL := b.allocExchange(engine.ExchangeSpec{
			Name:  fmt.Sprintf("%s->h(%s)", describeSchema(curSchema), hashCols[0]),
			Input: curNode, Kind: engine.RouteHash, HashCols: hashCols, Seed: seed,
		})
		exR := b.allocExchange(engine.ExchangeSpec{
			Name:  fmt.Sprintf("%s->h(%s)", info.atom.String(), hashCols[0]),
			Input: b.varNode(ai), Kind: engine.RouteHash, HashCols: hashCols, Seed: seed,
		})
		left := engine.Recv{Exchange: exL, Schema: curSchema}
		right := engine.Recv{Exchange: exR, Schema: info.varSchema()}

		outSchema := joinedSchema(curSchema, info.varSchema(), cols)
		var node engine.Node
		if tj {
			node = b.binaryTributary(left, curSchema, right, info.varSchema(), shared, outSchema)
		} else {
			node = engine.HashJoin{Left: left, Right: right, LeftCols: cols, RightCols: cols}
		}
		curSchema = outSchema
		for _, v := range info.vars {
			curVars[v] = true
		}
		curNode = b.applyReadyFilters(node, curSchema)
	}
	b.finalize(curNode, curSchema)
	return nil
}

// binaryTributary wraps two variable-layout streams in a two-atom Tributary
// join — a sort-merge join whose variable order leads with the shared
// variables.
func (b *builder) binaryTributary(left engine.Node, lSchema rel.Schema, right engine.Node, rSchema rel.Schema, shared []core.Var, outSchema rel.Schema) engine.Node {
	head := make([]core.Var, len(outSchema))
	for i, c := range outSchema {
		head[i] = core.Var(c)
	}
	q := core.MustQuery("merge", head, []core.Atom{
		{Relation: "L", Alias: "L", Terms: varTerms(lSchema)},
		{Relation: "R", Alias: "R", Terms: varTerms(rSchema)},
	})
	sharedSet := map[core.Var]bool{}
	ord := append([]core.Var(nil), shared...)
	for _, v := range shared {
		sharedSet[v] = true
	}
	for _, c := range lSchema {
		if v := core.Var(c); !sharedSet[v] {
			ord = append(ord, v)
			sharedSet[v] = true
		}
	}
	for _, c := range rSchema {
		if v := core.Var(c); !sharedSet[v] {
			ord = append(ord, v)
			sharedSet[v] = true
		}
	}
	return engine.Tributary{
		Query:  q,
		Inputs: map[string]engine.Node{"L": left, "R": right},
		Order:  ord,
	}
}

func varTerms(s rel.Schema) []core.Term {
	ts := make([]core.Term, len(s))
	for i, c := range s {
		ts[i] = core.V(c)
	}
	return ts
}

func varNames(vs []core.Var) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = string(v)
	}
	return out
}

// joinedSchema is left's columns followed by right's minus the join keys.
func joinedSchema(l, r rel.Schema, keys []string) rel.Schema {
	drop := map[string]bool{}
	for _, k := range keys {
		drop[k] = true
	}
	out := l.Clone()
	for _, c := range r {
		if !drop[c] {
			out = append(out, c)
		}
	}
	return out
}

func describeSchema(s rel.Schema) string {
	return "J(" + joinList([]string(s)) + ")"
}

func joinList(cols []string) string {
	out := ""
	for i, c := range cols {
		if i > 0 {
			out += ","
		}
		out += c
	}
	return out
}
