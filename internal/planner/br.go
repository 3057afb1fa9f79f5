package planner

import (
	"fmt"

	"parajoin/internal/core"
	"parajoin/internal/engine"
	"parajoin/internal/rel"
)

// buildBR builds the broadcast plan: the atom with the largest estimated
// cardinality stays in place (round-robin partitioned across workers), and
// every other atom's relation is broadcast to all workers; the query is
// then evaluated locally with either a hash-join tree or a single Tributary
// join.
func (b *builder) buildBR(res *Result, tj bool) error {
	local := 0
	for i := range b.atoms {
		if b.atoms[i].est.card > b.atoms[local].est.card {
			local = i
		}
	}

	// Term-layout stream per atom: the local one scans its fragment, the
	// others arrive via broadcast exchanges.
	termStreams := make([]engine.Node, len(b.atoms))
	for i := range b.atoms {
		if i == local {
			termStreams[i] = b.termNode(i)
			continue
		}
		ex := b.allocExchange(engine.ExchangeSpec{
			Name:  "Broadcast " + b.atoms[i].atom.String(),
			Input: b.termNode(i), Kind: engine.RouteBroadcast,
		})
		termStreams[i] = engine.Recv{Exchange: ex, Schema: b.atoms[i].baseSchema.Clone()}
	}

	if tj {
		return b.localTributary(res, termStreams)
	}
	return b.localHashTree(res, termStreams)
}

// localTributary evaluates the whole query with one Tributary join per
// worker over the given term-layout streams.
func (b *builder) localTributary(res *Result, termStreams []engine.Node) error {
	ord, cost, err := b.p.bestOrder(b.q)
	if err != nil {
		return err
	}
	res.Order, res.OrderCost = ord, cost
	inputs := make(map[string]engine.Node, len(b.atoms))
	for i, info := range b.atoms {
		inputs[info.atom.Alias] = termStreams[i]
	}
	node := engine.Tributary{Query: b.q, Inputs: inputs, Order: ord}
	// The Tributary join evaluates the query's own filters internally.
	for i := range b.appliedFilters {
		b.appliedFilters[i] = true
	}
	head := b.q.HeadVars()
	schema := make(rel.Schema, len(head))
	for i, h := range head {
		schema[i] = string(h)
	}
	b.finalize(node, schema)
	return nil
}

// localHashTree evaluates the query with a local left-deep hash-join tree
// over the given term-layout streams (no further exchanges).
func (b *builder) localHashTree(res *Result, termStreams []engine.Node) error {
	orderIdx, err := b.greedyAtomOrder()
	if err != nil {
		return err
	}
	res.JoinOrder = orderIdx

	first := orderIdx[0]
	curNode := b.projectRecvToVars(first, termStreams[first])
	curSchema := b.atoms[first].varSchema()
	curVars := map[core.Var]bool{}
	for _, v := range b.atoms[first].vars {
		curVars[v] = true
	}
	for _, ai := range orderIdx[1:] {
		info := b.atoms[ai]
		shared := sharedVars(curVars, info.vars)
		if len(shared) == 0 {
			return fmt.Errorf("planner: no shared variables joining %s", info.atom)
		}
		cols := varNames(shared)
		node := engine.HashJoin{
			Left:     curNode,
			Right:    b.projectRecvToVars(ai, termStreams[ai]),
			LeftCols: cols, RightCols: cols,
		}
		curSchema = joinedSchema(curSchema, info.varSchema(), cols)
		for _, v := range info.vars {
			curVars[v] = true
		}
		curNode = b.applyReadyFilters(node, curSchema)
	}
	b.finalize(curNode, curSchema)
	return nil
}
