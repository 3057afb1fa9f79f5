package planner

import (
	"fmt"

	"parajoin/internal/engine"
	"parajoin/internal/hypercube"
	"parajoin/internal/shares"
)

// buildHC builds the HyperCube-shuffle plan: Algorithm 1 picks the integral
// share configuration, every atom's relation is routed into the grid in one
// communication round (replicated along unbound dimensions), and each
// worker evaluates the entire query locally — with one Tributary join
// (HC_TJ, the paper's headline plan) or a local hash-join tree (HC_HJ).
func (b *builder) buildHC(res *Result, tj bool) error {
	cfg, err := shares.Optimize(b.q, b.p.Catalog, b.p.Workers)
	if err != nil {
		return err
	}
	res.HC = cfg
	grid := hypercube.NewGrid(cfg)
	if grid.Cells() > b.p.Workers {
		return fmt.Errorf("planner: configuration %s needs %d cells but only %d workers",
			cfg, grid.Cells(), b.p.Workers)
	}
	// One cell per worker (Algorithm 1 keeps nw(c) ≤ N); workers beyond the
	// cell count stay idle, which the paper accepts when it minimizes load.
	cellMap := make([]int, grid.Cells())
	for i := range cellMap {
		cellMap[i] = i
	}

	termStreams := make([]engine.Node, len(b.atoms))
	for i, info := range b.atoms {
		ex := b.allocExchange(engine.ExchangeSpec{
			Name:  "HCS " + info.atom.String(),
			Input: b.termNode(i), Kind: engine.RouteHyperCube,
			Grid: grid, Atom: info.atom, CellMap: cellMap,
		})
		termStreams[i] = engine.Recv{Exchange: ex, Schema: info.baseSchema.Clone()}
	}

	if tj {
		return b.localTributary(res, termStreams)
	}
	return b.localHashTree(res, termStreams)
}
