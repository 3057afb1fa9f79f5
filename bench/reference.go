package main

import (
	"context"
	"fmt"

	"parajoin"
	"parajoin/client"
	"parajoin/internal/core"
	"parajoin/internal/ljoin"
	"parajoin/internal/rel"
)

// answer is what the bench keeps of a result set: enough to tell a right
// answer from a wrong one without holding 270 k reference rows per op.
type answer struct {
	rows int
	sum  uint64
}

// checksum is order-independent (rows of hash-join plans arrive in
// per-process hash-iteration order) and multiset-sensitive: each row hashes
// to 64 bits and the hashes add, so a duplicated or dropped row shows even
// when the count is masked by another error.
func checksum(rows [][]int64) answer {
	a := answer{rows: len(rows)}
	for _, row := range rows {
		h := uint64(len(row)) + 0x9e3779b97f4a7c15
		for _, v := range row {
			h ^= uint64(v)
			h *= 0xbf58476d1ce4e5b9
			h ^= h >> 31
		}
		a.sum += h
	}
	return a
}

// prepare generates a workload's inputs and fills in every op's expected
// answer in-process, by a path the daemon will not take for that op: the
// exponential oracle where it is affordable, otherwise a strategy with a
// different shuffle and a different join.
func prepare(ctx context.Context, w *workload, seed int64) (*inputs, error) {
	in := generate(w, seed)
	if err := computeReferences(ctx, in); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return in, nil
}

func computeReferences(ctx context.Context, in *inputs) error {
	db := parajoin.Open(daemonWorkers, parajoin.WithParallelism(1))
	defer db.Close()
	if err := in.loadInto(db); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	memo := map[string]answer{} // the same (rule, ref) can appear twice in a pass
	for i := range in.ops {
		o := &in.ops[i]
		if o.ref == o.strategy {
			return fmt.Errorf("reference: %s is checked against the strategy it is timed under", o.label)
		}
		key := o.ref + "|" + o.bound
		want, ok := memo[key]
		if !ok {
			var err error
			if want, err = reference(ctx, db, in, o); err != nil {
				return fmt.Errorf("reference for %s via %s: %w", o.label, o.ref, err)
			}
			memo[key] = want
		}
		o.want = want
	}
	return nil
}

func reference(ctx context.Context, db *parajoin.DB, in *inputs, o *op) (answer, error) {
	if o.ref == "naive" {
		q, err := core.ParseRule(o.bound, nil)
		if err != nil {
			return answer{}, err
		}
		bound := map[string]*rel.Relation{}
		for _, a := range q.Atoms {
			bound[a.Alias] = in.rels[a.Relation]
		}
		out, err := ljoin.NaiveEvaluate(q, bound)
		if err != nil {
			return answer{}, err
		}
		rows := make([][]int64, len(out.Tuples))
		for i, t := range out.Tuples {
			rows[i] = t
		}
		return checksum(rows), nil
	}
	q, err := db.Query(o.bound)
	if err != nil {
		return answer{}, err
	}
	res, err := q.RunWith(ctx, parajoin.Strategy(o.ref))
	if err != nil {
		return answer{}, err
	}
	return checksum(res.Rows), nil
}

// check verifies one served answer: the rows, and that the op went down the
// path its workload exists to exercise. It runs outside the latency timer.
func check(w *workload, o *op, res *client.Result) error {
	if got := checksum(res.Rows); got != o.want {
		return fmt.Errorf("%s: wrong answer: %d rows (checksum %016x), reference has %d rows (checksum %016x)",
			o.label, got.rows, got.sum, o.want.rows, o.want.sum)
	}
	st := res.Stats
	switch {
	case o.strategy == "auto" && st.Strategy == "":
		return fmt.Errorf("%s: no strategy reported", o.label)
	case o.strategy != "auto" && st.Strategy != o.strategy:
		return fmt.Errorf("%s: ran as %q", o.label, st.Strategy)
	}
	wantRemote := 0
	if w.dist {
		wantRemote = distMembers
	}
	if st.RemoteFragments != wantRemote {
		return fmt.Errorf("%s: %d remote fragments, workload wants %d", o.label, st.RemoteFragments, wantRemote)
	}
	if (w.memLimit > 0) != (st.SpilledBytes > 0) {
		return fmt.Errorf("%s: spilled %d bytes under -mem-limit %d", o.label, st.SpilledBytes, w.memLimit)
	}
	if st.ResultCached || st.PlanCached {
		return fmt.Errorf("%s: served from a cache the daemon's defaults leave off", o.label)
	}
	return nil
}
