// Package planner builds distributed physical plans for conjunctive
// queries: the six shuffle × join configurations the paper evaluates
// (RS_HJ, RS_TJ, BR_HJ, BR_TJ, HC_HJ, HC_TJ) plus the distributed
// Yannakakis semijoin plans of Section 3.6.
package planner

import (
	"fmt"

	"parajoin/internal/core"
	"parajoin/internal/engine"
	"parajoin/internal/ljoin"
	"parajoin/internal/order"
	"parajoin/internal/rel"
	"parajoin/internal/shares"
	"parajoin/internal/stats"
)

// PlanConfig names one of the paper's shuffle × join configurations.
type PlanConfig int

// The six configurations of the paper's evaluation, plus the semijoin plan.
const (
	// RSHJ: regular (single-attribute hash) shuffles with a left-deep tree
	// of pipelined symmetric hash joins.
	RSHJ PlanConfig = iota
	// RSTJ: regular shuffles with binary Tributary (sort-merge) joins.
	RSTJ
	// BRHJ: broadcast all but the largest relation, local hash-join tree.
	BRHJ
	// BRTJ: broadcast all but the largest relation, one local Tributary join.
	BRTJ
	// HCHJ: HyperCube shuffle with a local hash-join tree.
	HCHJ
	// HCTJ: HyperCube shuffle with one local Tributary join — the paper's
	// headline combination.
	HCTJ
	// SemiJoin: the distributed Yannakakis reduction (acyclic queries only).
	SemiJoin
)

// Configs lists the six figure configurations in the paper's display order.
var Configs = []PlanConfig{RSHJ, RSTJ, BRHJ, BRTJ, HCHJ, HCTJ}

func (c PlanConfig) String() string {
	switch c {
	case RSHJ:
		return "RS_HJ"
	case RSTJ:
		return "RS_TJ"
	case BRHJ:
		return "BR_HJ"
	case BRTJ:
		return "BR_TJ"
	case HCHJ:
		return "HC_HJ"
	case HCTJ:
		return "HC_TJ"
	case SemiJoin:
		return "SEMIJOIN"
	}
	return fmt.Sprintf("PlanConfig(%d)", int(c))
}

// Planner builds plans for one database (catalog + relations) and cluster
// size.
type Planner struct {
	// Workers is the cluster size N.
	Workers int
	// Catalog provides the statistics both optimizers use.
	Catalog *stats.Catalog
	// Relations maps base relation names to the full relations; the
	// variable-order estimator counts prefix statistics over them — through
	// Catalog's memo where the catalog was collected from the same relation.
	Relations map[string]*rel.Relation
	// MaxOrders caps variable-order enumeration (default 5040 = 7!).
	MaxOrders int
	// Seed makes sampled order enumeration reproducible.
	Seed int64
	// Mode selects nothing; kept only for bench/ledger.go, which sets it
	// (ROADMAP 1(a)). Every Tributary join seeks by galloping search.
	Mode ljoin.SeekMode
}

// Result is a built plan plus the optimizer decisions that shaped it.
type Result struct {
	Config PlanConfig
	Plan   *engine.Plan
	// Rounds is the executable form: one round for the six figure
	// configurations, many for the semijoin reduction. Run it with
	// Cluster.RunRounds.
	Rounds []engine.Round
	// HC holds the share configuration for HyperCube plans.
	HC shares.Config
	// Order is the Tributary variable order (HC_TJ and BR_TJ).
	Order []core.Var
	// OrderCost is the estimated cost of Order under the Section-5 model.
	OrderCost float64
	// JoinOrder is the greedy atom order for binary-join trees.
	JoinOrder []int
}

// Plan builds the requested configuration for q.
func (p *Planner) Plan(q *core.Query, cfg PlanConfig) (*Result, error) {
	if p.Workers < 1 {
		return nil, fmt.Errorf("planner: need at least one worker")
	}
	if p.Catalog == nil {
		return nil, fmt.Errorf("planner: no catalog")
	}
	b := &builder{p: p, q: q, plan: &engine.Plan{}}
	if err := b.prepareAtoms(); err != nil {
		return nil, err
	}
	res := &Result{Config: cfg}
	var err error
	switch cfg {
	case RSHJ:
		err = b.buildRS(res, false)
	case RSTJ:
		err = b.buildRS(res, true)
	case BRHJ:
		err = b.buildBR(res, false)
	case BRTJ:
		err = b.buildBR(res, true)
	case HCHJ:
		err = b.buildHC(res, false)
	case HCTJ:
		err = b.buildHC(res, true)
	case SemiJoin:
		err = b.buildSemijoin(res)
	default:
		err = fmt.Errorf("planner: unknown configuration %v", cfg)
	}
	if err != nil {
		return nil, err
	}
	if len(res.Rounds) == 0 {
		res.Rounds = []engine.Round{{Name: cfg.String(), Plan: b.plan}}
	}
	res.Plan = res.Rounds[len(res.Rounds)-1].Plan
	for i, round := range res.Rounds {
		if err := round.Plan.Validate(); err != nil {
			return nil, fmt.Errorf("planner: built invalid plan for %v round %d (%s): %w",
				cfg, i, round.Name, err)
		}
	}
	return res, nil
}

// bestOrder picks a Tributary variable order with the Section-5 cost model,
// falling back to first-appearance order when the full relations are not
// available.
func (p *Planner) bestOrder(q *core.Query) ([]core.Var, float64, error) {
	rels, err := p.atomRelations(q)
	if err != nil || rels == nil {
		return q.Vars(), 0, nil
	}
	est, err := order.NewEstimatorWith(q, rels, p.Catalog)
	if err != nil {
		return nil, 0, err
	}
	maxOrders := p.MaxOrders
	if maxOrders <= 0 {
		maxOrders = 5040
	}
	best, cost, err := est.Best(maxOrders, p.Seed)
	if err != nil {
		return nil, 0, err
	}
	return best, cost, nil
}

// atomRelations maps aliases to base relations (nil when Relations is
// unset).
func (p *Planner) atomRelations(q *core.Query) (map[string]*rel.Relation, error) {
	if p.Relations == nil {
		return nil, nil
	}
	m := make(map[string]*rel.Relation, len(q.Atoms))
	for _, a := range q.Atoms {
		r := p.Relations[a.Relation]
		if r == nil {
			return nil, fmt.Errorf("planner: no relation %q", a.Relation)
		}
		m[a.Alias] = r
	}
	return m, nil
}
