package engine

import (
	"fmt"
	"io"

	"parajoin/internal/rel"
)

// SemiJoin keeps the Left tuples that match at least one Right tuple on
// LeftCols = RightCols — the building block of the distributed Yannakakis
// reduction (Section 3.6 of the paper). Right is drained first (it is the
// projected, deduplicated key set), then Left streams through the filter.
type SemiJoin struct {
	Left, Right         Node
	LeftCols, RightCols []string
}

func (SemiJoin) node() {}

type semiJoinOp struct {
	t           *task
	left, right operator
	lCols       []int
	rCols       []int
	sch         rel.Schema
	keys        *keyTable // the first Right row of every key
}

func (o *semiJoinOp) schema() rel.Schema { return o.sch }

func (o *semiJoinOp) open() error {
	if err := o.right.open(); err != nil {
		return err
	}
	o.keys = newKeyTable(len(o.right.schema()), o.rCols)
	for {
		b, err := o.right.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for i := range b.Len() {
			if t := b.Row(i); o.keys.insert(t, keyHash(t, o.rCols), true) {
				if err := o.t.ex.charge(o.t.worker, 1, b.Arity, "semijoin"); err != nil {
					return err
				}
				o.t.ex.held[o.t.worker].hash.Add(int64(b.Arity))
			}
		}
		o.t.ex.recycle(b)
	}
	if err := o.right.close(); err != nil {
		return err
	}
	return o.left.open()
}

// next keeps the matching rows of its input batch, compacted to its front.
func (o *semiJoinOp) next() (rel.Batch, error) {
	for {
		b, err := o.left.next()
		if err != nil {
			return rel.Batch{}, err
		}
		out := rel.BatchOf(b.Arity, 0, b.Vals[:0])
		for i := range b.Len() {
			if t := b.Row(i); o.keys.find(t, o.lCols, keyHash(t, o.lCols)) >= 0 {
				out.Append(t)
			}
		}
		if out.Len() > 0 {
			return out, nil
		}
		o.t.ex.recycle(b)
	}
}

func (o *semiJoinOp) close() error {
	if o.keys != nil {
		o.t.ex.held[o.t.worker].hash.Add(-o.keys.values())
		o.keys = nil
	}
	return o.left.close()
}

// compileSemiJoin is called from exec.compile.
func (e *exec) compileSemiJoin(v SemiJoin, t *task) (operator, error) {
	left, err := e.compile(v.Left, t)
	if err != nil {
		return nil, err
	}
	right, err := e.compile(v.Right, t)
	if err != nil {
		return nil, err
	}
	if len(v.LeftCols) != len(v.RightCols) || len(v.LeftCols) == 0 {
		return nil, fmt.Errorf("engine: semijoin keys %v vs %v", v.LeftCols, v.RightCols)
	}
	op := &semiJoinOp{t: t, left: left, right: right, sch: left.schema().Clone()}
	for _, c := range v.LeftCols {
		i := left.schema().IndexOf(c)
		if i < 0 {
			return nil, fmt.Errorf("engine: semijoin column %q not in left %v", c, left.schema())
		}
		op.lCols = append(op.lCols, i)
	}
	for _, c := range v.RightCols {
		i := right.schema().IndexOf(c)
		if i < 0 {
			return nil, fmt.Errorf("engine: semijoin column %q not in right %v", c, right.schema())
		}
		op.rCols = append(op.rCols, i)
	}
	return op, nil
}
