package engine

import (
	"fmt"

	"parajoin/internal/core"
	"parajoin/internal/hypercube"
	"parajoin/internal/ljoin"
	"parajoin/internal/rel"
)

// The physical plan IR. A Plan is instantiated identically on every worker
// (SPMD, as in Myria): the Root tree produces the worker's fragment of the
// result, and each ExchangeSpec runs as a concurrent producer task that
// drains its input tree into the transport. Receivers (Recv nodes) connect
// the trees across workers, so tuples stream through multi-exchange plans
// without global barriers.

// Node is a physical plan operator description.
type Node interface {
	node()
}

// Scan reads the worker-local fragment of a stored relation.
type Scan struct {
	Table string
}

// Select filters rows with column comparisons.
type Select struct {
	Input   Node
	Filters []ColFilter
}

// ColFilter compares a column to another column (RightCol != "") or to a
// constant.
type ColFilter struct {
	Left     string
	Op       core.CmpOp
	RightCol string
	Const    int64
}

// Project keeps the named columns, optionally renaming them via As and
// deduplicating the stream.
type Project struct {
	Input Node
	Cols  []string
	// As renames the projected columns; empty keeps the input names.
	As    []string
	Dedup bool
}

// HashJoin is the pipelined symmetric hash join of the paper: both inputs
// feed hash tables; each arriving batch probes the opposite table. Inputs
// are pulled round-robin, preferring the side with data available.
type HashJoin struct {
	Left, Right         Node
	LeftCols, RightCols []string
}

// Tributary runs the worst-case-optimal multiway join locally over the
// worker's inputs: one input per query atom (tuples in the atom's term
// layout), fully materialized and sorted before the join — the paper's
// sort-then-join Tributary operator.
type Tributary struct {
	Query *core.Query
	// Inputs maps atom aliases to their input nodes.
	Inputs map[string]Node
	Order  []core.Var
	Mode   ljoin.SeekMode
}

// Recv consumes one side of an exchange. Schema declares the tuple layout
// the matching ExchangeSpec delivers.
type Recv struct {
	Exchange int
	Schema   rel.Schema
}

func (Scan) node()      {}
func (Select) node()    {}
func (Project) node()   {}
func (HashJoin) node()  {}
func (Tributary) node() {}
func (Recv) node()      {}

// RouteKind selects an exchange's routing policy.
type RouteKind int

// Exchange routing policies, matching the paper's three shuffle algorithms.
const (
	// RouteHash is the regular shuffle: destination = hash of HashCols mod N.
	RouteHash RouteKind = iota
	// RouteBroadcast replicates every tuple to all workers.
	RouteBroadcast
	// RouteHyperCube sends each tuple to the grid cells its atom's bound
	// variables select, replicated along unbound dimensions, then through
	// CellMap to workers (deduplicated per worker).
	RouteHyperCube
)

// ExchangeSpec declares one exchange: which tree feeds it and how tuples
// are routed. IDs must be unique within a plan.
type ExchangeSpec struct {
	ID    int
	Name  string
	Input Node
	Kind  RouteKind

	// HashCols names the partitioning columns for RouteHash.
	HashCols []string
	// Seed varies the hash partition between exchanges.
	Seed uint64

	// Grid, Atom and CellMap configure RouteHyperCube. Atom's terms must
	// match the input schema positionally.
	Grid    *hypercube.Grid
	Atom    core.Atom
	CellMap []int
}

// Plan is a complete distributed query plan.
type Plan struct {
	Exchanges []ExchangeSpec
	Root      Node
}

// Validate checks exchange IDs and that every Recv has a matching spec.
func (p *Plan) Validate() error {
	ids := make(map[int]bool)
	for _, ex := range p.Exchanges {
		if ids[ex.ID] {
			return fmt.Errorf("engine: duplicate exchange id %d", ex.ID)
		}
		ids[ex.ID] = true
		if ex.Input == nil {
			return fmt.Errorf("engine: exchange %d has no input", ex.ID)
		}
	}
	var check func(n Node) error
	check = func(n Node) error {
		switch v := n.(type) {
		case Scan:
			return nil
		case Select:
			return check(v.Input)
		case Project:
			return check(v.Input)
		case HashJoin:
			if err := check(v.Left); err != nil {
				return err
			}
			return check(v.Right)
		case SemiJoin:
			if err := check(v.Left); err != nil {
				return err
			}
			return check(v.Right)
		case Count:
			return check(v.Input)
		case Tributary:
			for _, in := range v.Inputs {
				if err := check(in); err != nil {
					return err
				}
			}
			return nil
		case Recv:
			if !ids[v.Exchange] {
				return fmt.Errorf("engine: Recv references unknown exchange %d", v.Exchange)
			}
			return nil
		case nil:
			return fmt.Errorf("engine: nil plan node")
		default:
			return fmt.Errorf("engine: unknown node type %T", n)
		}
	}
	for _, ex := range p.Exchanges {
		if err := check(ex.Input); err != nil {
			return err
		}
	}
	if p.Root == nil {
		return fmt.Errorf("engine: plan has no root")
	}
	return check(p.Root)
}
