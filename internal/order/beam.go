package order

import (
	"fmt"
	"sort"

	"parajoin/internal/core"
)

// Beam search over variable orders. Exhaustive enumeration is k! and the
// paper's Q4/Q8 already have eight variables; random sampling (what Best
// falls back to) explores blindly. BestBeam builds orders left to right,
// keeping the `width` cheapest partial orders per level, scoring partials
// by the same Section-5 cost accumulation the full model uses. Because the
// cost is a sum of prefix products of the per-step intersection estimates,
// a partial order's cost is a lower bound on every completion's cost
// through that prefix, which makes the greedy expansion well-behaved.
type beamState struct {
	order []int // indices into Estimator.vars
	mask  uint64
	// prod is the product of the S_i estimates so far; cost the partial sum.
	prod float64
	cost float64
}

// BestBeam returns the lowest-estimated-cost order found by beam search
// with the given width (the paper-scale queries do well with width 8–32).
func (e *Estimator) BestBeam(width int) ([]core.Var, float64, error) {
	perm, cost, err := e.bestBeam(width)
	if err != nil {
		return nil, 0, err
	}
	return e.names(perm), cost, nil
}

func (e *Estimator) bestBeam(width int) ([]int, float64, error) {
	if width < 1 {
		return nil, 0, fmt.Errorf("order: beam width must be positive")
	}
	k := len(e.vars)
	if k == 0 {
		return nil, 0, fmt.Errorf("order: query has no variables")
	}
	beam := []beamState{{order: nil, mask: 0, prod: 1, cost: 0}}
	for level := 0; level < k; level++ {
		var next []beamState
		for _, st := range beam {
			for v := 0; v < k; v++ {
				bit := uint64(1) << uint(v)
				if st.mask&bit != 0 {
					continue
				}
				prod := st.prod * e.step(st.mask, v)
				next = append(next, beamState{
					order: append(append([]int(nil), st.order...), v),
					mask:  st.mask | bit,
					prod:  prod,
					cost:  st.cost + prod,
				})
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i].cost < next[j].cost })
		if len(next) > width {
			next = next[:width]
		}
		beam = next
	}
	best := beam[0]
	return best.order, best.cost, nil
}
