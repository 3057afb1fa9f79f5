package engine

import (
	"io"

	"parajoin/internal/rel"
)

// Count consumes its input and emits a single one-column tuple holding the
// number of tuples seen. Counting per worker and summing client-side is how
// the paper's motivating workload — graphlet frequencies (§1) — avoids
// materializing billions of pattern instances.
type Count struct {
	Input Node
}

func (Count) node() {}

type countOp struct {
	t    *task
	in   operator
	n    int64
	done bool
}

func (o *countOp) schema() rel.Schema { return rel.Schema{"count"} }
func (o *countOp) open() error        { return o.in.open() }
func (o *countOp) close() error       { return o.in.close() }

func (o *countOp) next() (rel.Batch, error) {
	if o.done {
		return rel.Batch{}, io.EOF
	}
	for {
		b, err := o.in.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return rel.Batch{}, err
		}
		o.n += int64(b.Len())
		o.t.ex.recycle(b)
	}
	o.done = true
	return rel.BatchOf(1, 1, []int64{o.n}), nil
}

// compileCount is called from exec.compile.
func (e *exec) compileCount(v Count, t *task) (operator, error) {
	in, err := e.compile(v.Input, t)
	if err != nil {
		return nil, err
	}
	return &countOp{t: t, in: in}, nil
}
