package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"parajoin/internal/core"
	"parajoin/internal/hypercube"
	"parajoin/internal/rel"
	"parajoin/internal/shares"
)

// Plan serialization for distributed execution (DESIGN.md, "Distributed
// execution"). The coordinator plans a query once and ships the resulting
// rounds to every data node as a JSON fragment spec; each node rebuilds the
// identical []Round and executes it as its hosted worker. The encoding is a
// tagged union over the Node kinds, and every field that feeds hashing or
// routing (seeds, grid dimensions, cell maps) is carried verbatim, so a
// decoded plan routes every tuple to exactly the worker the
// coordinator-local plan would — the property the byte-identical merge
// invariant rests on. The HyperCube grid travels as its (Vars, Dims)
// configuration: NewGrid derives the per-dimension hash seeds from the
// variable names, so reconstruction is deterministic.

// Node kind tags.
const (
	kindScan      = "scan"
	kindSelect    = "select"
	kindProject   = "project"
	kindHashJoin  = "hashjoin"
	kindSemiJoin  = "semijoin"
	kindCount     = "count"
	kindTributary = "tributary"
	kindRecv      = "recv"
)

// sNode is the serialized form of a plan Node: Kind selects the variant,
// the remaining fields are a union.
type sNode struct {
	Kind string `json:"kind"`

	// scan
	Table string `json:"table,omitempty"`

	// select / project / count
	Input   *sNode      `json:"input,omitempty"`
	Filters []ColFilter `json:"filters,omitempty"`
	Cols    []string    `json:"cols,omitempty"`
	As      []string    `json:"as,omitempty"`
	Dedup   bool        `json:"dedup,omitempty"`

	// hashjoin / semijoin
	Left      *sNode   `json:"left,omitempty"`
	Right     *sNode   `json:"right,omitempty"`
	LeftCols  []string `json:"left_cols,omitempty"`
	RightCols []string `json:"right_cols,omitempty"`

	// tributary
	Query  *core.Query       `json:"query,omitempty"`
	Inputs map[string]*sNode `json:"inputs,omitempty"`
	Order  []core.Var        `json:"order,omitempty"`

	// recv
	Exchange int      `json:"exchange,omitempty"`
	Schema   []string `json:"schema,omitempty"`
}

// sExchange is the serialized form of an ExchangeSpec. The grid travels as
// its share configuration; HasGrid distinguishes "no grid" from an empty one.
type sExchange struct {
	ID       int      `json:"id"`
	Name     string   `json:"name,omitempty"`
	Input    *sNode   `json:"input"`
	Kind     int      `json:"kind"`
	HashCols []string `json:"hash_cols,omitempty"`
	Seed     uint64   `json:"seed,omitempty"`

	HasGrid  bool       `json:"has_grid,omitempty"`
	GridVars []core.Var `json:"grid_vars,omitempty"`
	GridDims []int      `json:"grid_dims,omitempty"`
	Atom     core.Atom  `json:"atom,omitempty"`
	CellMap  []int      `json:"cell_map,omitempty"`
}

// sRound is the serialized form of a Round.
type sRound struct {
	Name      string      `json:"name,omitempty"`
	Exchanges []sExchange `json:"exchanges,omitempty"`
	Root      *sNode      `json:"root"`
	StoreAs   string      `json:"store_as,omitempty"`
}

func encodeNode(n Node) (*sNode, error) {
	switch v := n.(type) {
	case Scan:
		return &sNode{Kind: kindScan, Table: v.Table}, nil
	case Select:
		in, err := encodeNode(v.Input)
		if err != nil {
			return nil, err
		}
		return &sNode{Kind: kindSelect, Input: in, Filters: v.Filters}, nil
	case Project:
		in, err := encodeNode(v.Input)
		if err != nil {
			return nil, err
		}
		return &sNode{Kind: kindProject, Input: in, Cols: v.Cols, As: v.As, Dedup: v.Dedup}, nil
	case HashJoin:
		l, err := encodeNode(v.Left)
		if err != nil {
			return nil, err
		}
		r, err := encodeNode(v.Right)
		if err != nil {
			return nil, err
		}
		return &sNode{Kind: kindHashJoin, Left: l, Right: r, LeftCols: v.LeftCols, RightCols: v.RightCols}, nil
	case SemiJoin:
		l, err := encodeNode(v.Left)
		if err != nil {
			return nil, err
		}
		r, err := encodeNode(v.Right)
		if err != nil {
			return nil, err
		}
		return &sNode{Kind: kindSemiJoin, Left: l, Right: r, LeftCols: v.LeftCols, RightCols: v.RightCols}, nil
	case Count:
		in, err := encodeNode(v.Input)
		if err != nil {
			return nil, err
		}
		return &sNode{Kind: kindCount, Input: in}, nil
	case Tributary:
		inputs := make(map[string]*sNode, len(v.Inputs))
		for alias, in := range v.Inputs {
			sn, err := encodeNode(in)
			if err != nil {
				return nil, err
			}
			inputs[alias] = sn
		}
		return &sNode{Kind: kindTributary, Query: v.Query, Inputs: inputs, Order: v.Order}, nil
	case Recv:
		return &sNode{Kind: kindRecv, Exchange: v.Exchange, Schema: v.Schema}, nil
	case nil:
		return nil, fmt.Errorf("engine: cannot serialize nil plan node")
	default:
		return nil, fmt.Errorf("engine: cannot serialize plan node %T", n)
	}
}

func decodeNode(s *sNode) (Node, error) {
	if s == nil {
		return nil, fmt.Errorf("engine: missing plan node")
	}
	switch s.Kind {
	case kindScan:
		return Scan{Table: s.Table}, nil
	case kindSelect:
		in, err := decodeNode(s.Input)
		if err != nil {
			return nil, err
		}
		return Select{Input: in, Filters: s.Filters}, nil
	case kindProject:
		in, err := decodeNode(s.Input)
		if err != nil {
			return nil, err
		}
		return Project{Input: in, Cols: s.Cols, As: s.As, Dedup: s.Dedup}, nil
	case kindHashJoin:
		l, err := decodeNode(s.Left)
		if err != nil {
			return nil, err
		}
		r, err := decodeNode(s.Right)
		if err != nil {
			return nil, err
		}
		return HashJoin{Left: l, Right: r, LeftCols: s.LeftCols, RightCols: s.RightCols}, nil
	case kindSemiJoin:
		l, err := decodeNode(s.Left)
		if err != nil {
			return nil, err
		}
		r, err := decodeNode(s.Right)
		if err != nil {
			return nil, err
		}
		return SemiJoin{Left: l, Right: r, LeftCols: s.LeftCols, RightCols: s.RightCols}, nil
	case kindCount:
		in, err := decodeNode(s.Input)
		if err != nil {
			return nil, err
		}
		return Count{Input: in}, nil
	case kindTributary:
		if s.Query == nil {
			return nil, fmt.Errorf("engine: tributary node without query")
		}
		inputs := make(map[string]Node, len(s.Inputs))
		for alias, sn := range s.Inputs {
			in, err := decodeNode(sn)
			if err != nil {
				return nil, err
			}
			inputs[alias] = in
		}
		return Tributary{Query: s.Query, Inputs: inputs, Order: s.Order}, nil
	case kindRecv:
		return Recv{Exchange: s.Exchange, Schema: rel.Schema(s.Schema)}, nil
	default:
		return nil, fmt.Errorf("engine: unknown serialized node kind %q", s.Kind)
	}
}

func encodeExchange(ex *ExchangeSpec) (sExchange, error) {
	in, err := encodeNode(ex.Input)
	if err != nil {
		return sExchange{}, err
	}
	s := sExchange{
		ID: ex.ID, Name: ex.Name, Input: in, Kind: int(ex.Kind),
		HashCols: ex.HashCols, Seed: ex.Seed,
		Atom: ex.Atom, CellMap: ex.CellMap,
	}
	if ex.Grid != nil {
		s.HasGrid = true
		s.GridVars = ex.Grid.Vars
		s.GridDims = ex.Grid.Dims
	}
	return s, nil
}

func decodeExchange(s sExchange) (ExchangeSpec, error) {
	in, err := decodeNode(s.Input)
	if err != nil {
		return ExchangeSpec{}, err
	}
	ex := ExchangeSpec{
		ID: s.ID, Name: s.Name, Input: in, Kind: RouteKind(s.Kind),
		HashCols: s.HashCols, Seed: s.Seed,
		Atom: s.Atom, CellMap: s.CellMap,
	}
	if s.HasGrid {
		if len(s.GridVars) != len(s.GridDims) {
			return ExchangeSpec{}, fmt.Errorf("engine: exchange %d grid has %d vars but %d dims",
				s.ID, len(s.GridVars), len(s.GridDims))
		}
		for _, d := range s.GridDims {
			if d < 1 {
				return ExchangeSpec{}, fmt.Errorf("engine: exchange %d grid dimension %d < 1", s.ID, d)
			}
		}
		ex.Grid = hypercube.NewGrid(shares.Config{Vars: s.GridVars, Dims: s.GridDims})
	}
	return ex, nil
}

// EncodeRounds serializes a multi-round plan for fragment dispatch. The
// encoding round-trips through DecodeRounds to a plan that validates and
// routes identically.
func EncodeRounds(rounds []Round) ([]byte, error) {
	out := make([]sRound, len(rounds))
	for i, r := range rounds {
		if r.Plan == nil {
			return nil, fmt.Errorf("engine: round %d has no plan", i)
		}
		sr := sRound{Name: r.Name, StoreAs: r.StoreAs}
		for j := range r.Plan.Exchanges {
			se, err := encodeExchange(&r.Plan.Exchanges[j])
			if err != nil {
				return nil, fmt.Errorf("engine: round %d: %w", i, err)
			}
			sr.Exchanges = append(sr.Exchanges, se)
		}
		root, err := encodeNode(r.Plan.Root)
		if err != nil {
			return nil, fmt.Errorf("engine: round %d: %w", i, err)
		}
		sr.Root = root
		out[i] = sr
	}
	return json.Marshal(out)
}

// DecodeRounds rebuilds a serialized multi-round plan and validates every
// round, so a malformed or hostile spec fails here rather than mid-run.
func DecodeRounds(data []byte) ([]Round, error) {
	var srs []sRound
	if err := json.Unmarshal(data, &srs); err != nil {
		return nil, fmt.Errorf("engine: decoding rounds: %w", err)
	}
	if len(srs) == 0 {
		return nil, fmt.Errorf("engine: decoded plan has no rounds")
	}
	rounds := make([]Round, len(srs))
	for i, sr := range srs {
		plan := &Plan{}
		for _, se := range sr.Exchanges {
			ex, err := decodeExchange(se)
			if err != nil {
				return nil, fmt.Errorf("engine: round %d: %w", i, err)
			}
			plan.Exchanges = append(plan.Exchanges, ex)
		}
		root, err := decodeNode(sr.Root)
		if err != nil {
			return nil, fmt.Errorf("engine: round %d: %w", i, err)
		}
		plan.Root = root
		if err := plan.Validate(); err != nil {
			return nil, fmt.Errorf("engine: round %d: %w", i, err)
		}
		rounds[i] = Round{Name: sr.Name, Plan: plan, StoreAs: sr.StoreAs}
	}
	if rounds[len(rounds)-1].StoreAs != "" {
		return nil, fmt.Errorf("engine: decoded plan's final round stores its result")
	}
	return rounds, nil
}

// RemoteRunner executes a multi-round plan somewhere other than this
// process's workers — the hook distributed execution plugs into. When a
// Cluster's Remote field is set, RunRounds/RunRoundsOpts delegate whole
// queries to it (result caches, dedup, and stats above the engine keep
// working unchanged); when nil, rounds run on the local workers exactly as
// before. Implementations must return the result relation in the same
// serial worker order the local path produces (worker 0's fragment first),
// preserving the byte-identical merge invariant.
type RemoteRunner interface {
	RunRounds(ctx context.Context, rounds []Round, opts RunOpts) (*rel.Relation, *Report, error)
}

// MergeDistributedReports folds per-member run reports into one cluster-wide
// report. Each member's report carries full-length per-worker vectors with
// only its hosted workers' slots populated, so every vector — the exchange
// rows' Sent and Received included — merges elementwise, and the totals and
// skews derived from them equal a single-process run's. Exchange rows match
// by (round, id). Wall time is the slowest member's (fragments run
// concurrently); CPU and byte counters sum.
func MergeDistributedReports(reports []*Report) *Report {
	var out *Report
	for _, r := range reports {
		if r == nil {
			continue
		}
		if out == nil {
			out = &Report{}
		}
		out.add(r)
		out.WallTime = max(out.WallTime, r.WallTime)
		for _, e := range r.Exchanges {
			i := slices.IndexFunc(out.Exchanges, func(o ExchangeReport) bool { return o.Round == e.Round && o.ID == e.ID })
			if i < 0 {
				i = len(out.Exchanges)
				out.Exchanges = append(out.Exchanges, ExchangeReport{Round: e.Round, ID: e.ID, Name: e.Name})
			}
			row := &out.Exchanges[i]
			row.Sent = addVec(row.Sent, e.Sent)
			row.Received = addVec(row.Received, e.Received)
		}
	}
	return out
}
