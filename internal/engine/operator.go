package engine

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"parajoin/internal/core"
	"parajoin/internal/ljoin"
	"parajoin/internal/rel"
	"parajoin/internal/spill"
	"parajoin/internal/trace"
)

// ErrOutOfMemory is returned when a worker's materialized state exceeds the
// cluster's MaxLocalTuples budget — the condition reported as FAIL for
// RS_TJ on Q4 and Q5 in the paper.
var ErrOutOfMemory = errors.New("engine: worker memory budget exceeded")

// operator is the runtime iterator all plan nodes compile to. Next returns
// io.EOF after the last batch.
type operator interface {
	schema() rel.Schema
	open() error
	next() ([]rel.Tuple, error)
	close() error
}

// task groups the per-task state operators need: the worker, the run-wide
// executor, the exchange tree the task drains (-1 for the root tree), a
// postorder operator-id counter for tracing, and the wait accumulator used
// to subtract transport stalls from busy time.
type task struct {
	ex       *exec
	worker   int
	exchange int
	opSeq    int
	wait     time.Duration
}

// ---------------------------------------------------------------- scan

type scanOp struct {
	t     *task
	table string
	sch   rel.Schema
	rows  []rel.Tuple
	pos   int
}

func (o *scanOp) schema() rel.Schema { return o.sch }

func (o *scanOp) open() error {
	frag := o.t.ex.fragment(o.t.worker, o.table)
	if frag == nil {
		return fmt.Errorf("engine: worker %d has no fragment of %q", o.t.worker, o.table)
	}
	o.rows = frag.Tuples
	return nil
}

func (o *scanOp) next() ([]rel.Tuple, error) {
	if o.pos >= len(o.rows) {
		return nil, io.EOF
	}
	end := o.pos + o.t.ex.batchSize
	if end > len(o.rows) {
		end = len(o.rows)
	}
	b := o.rows[o.pos:end:end] // clamped: the fragment is shared storage
	o.pos = end
	o.t.ex.metrics.addProcessed(o.t.worker, int64(len(b)))
	return b, nil
}

func (o *scanOp) close() error { return nil }

// ---------------------------------------------------------------- select

type selectOp struct {
	in      operator
	sch     rel.Schema
	filters []compiledFilter
}

type compiledFilter struct {
	left  int
	op    core.CmpOp
	right int // column index, or -1 for constant
	c     int64
}

func (o *selectOp) schema() rel.Schema { return o.sch }
func (o *selectOp) open() error        { return o.in.open() }
func (o *selectOp) close() error       { return o.in.close() }

func (o *selectOp) next() ([]rel.Tuple, error) {
	for {
		b, err := o.in.next()
		if err != nil {
			return nil, err
		}
		out := b[:0:0]
		for _, t := range b {
			keep := true
			for _, f := range o.filters {
				right := f.c
				if f.right >= 0 {
					right = t[f.right]
				}
				if !f.op.Eval(t[f.left], right) {
					keep = false
					break
				}
			}
			if keep {
				out = append(out, t)
			}
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

// ---------------------------------------------------------------- project

type projectOp struct {
	t     *task
	in    operator
	sch   rel.Schema
	cols  []int
	dedup bool
	seen  *keyTable // the projected rows so far, keyed on all their columns
}

func (o *projectOp) schema() rel.Schema { return o.sch }

func (o *projectOp) open() error {
	if o.dedup {
		all := make([]int, len(o.cols))
		for i := range all {
			all[i] = i
		}
		o.seen = newKeyTable(len(all), all)
	}
	return o.in.open()
}

func (o *projectOp) close() error { return o.in.close() }

func (o *projectOp) next() ([]rel.Tuple, error) {
	for {
		b, err := o.in.next()
		if err != nil {
			return nil, err
		}
		out := make([]rel.Tuple, 0, len(b))
		for _, t := range b {
			p := t.Project(o.cols)
			if o.dedup {
				if !o.seen.insert(p, keyHash(p, o.seen.cols), true) {
					continue
				}
				if err := o.t.ex.charge(o.t.worker, 1, "project-dedup"); err != nil {
					return nil, err
				}
			}
			out = append(out, p)
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

// ---------------------------------------------------------------- hash join

// hashJoinOp is the symmetric (pipelined) hash join: hash tables on both
// sides, each arriving batch inserted into its side's table and probed
// against the other. Inputs are pulled round-robin; when one side is
// exhausted the other is drained — the paper's "if one input does not have
// any data, the join pulls the other input". Side 0 is the left input,
// side 1 the right. Each side's table owns copies of its rows (keyTable),
// and a key's matches come back in the other side's insertion order.
type hashJoinOp struct {
	t     *task
	in    [2]operator
	cols  [2][]int // each side's key columns
	sch   rel.Schema
	rKeep []int

	tabs    [2]*keyTable
	out     []int64     // the output chunk rows are carved from
	pending []rel.Tuple // the batch being filled
	ready   [][]rel.Tuple
	turn    int // the side to pull next
	done    [2]bool
}

func (o *hashJoinOp) schema() rel.Schema { return o.sch }

func (o *hashJoinOp) open() error {
	for s, in := range o.in {
		o.tabs[s] = newKeyTable(len(in.schema()), o.cols[s])
		if err := in.open(); err != nil {
			return err
		}
	}
	return nil
}

func (o *hashJoinOp) close() error {
	err1 := o.in[0].close()
	err2 := o.in[1].close()
	if err1 != nil {
		return err1
	}
	return err2
}

// emit appends the joined row to pending as a capacity-clamped view into
// the output chunk; a full pending is queued and replaced by one twice its
// size, from 64 rows up to a batch, so a join that emits a handful of rows
// stays small. Output chunks double from 16 rows up to keyChunk values and
// are never reused: their rows escape downstream (exchanges, the result
// merge, colbatch encode), and later rows are only ever appended. One probe
// batch over a heavy key can match millions of rows, so each queued batch
// polls the run's context and emit returns its error.
func (o *hashJoinOp) emit(left, right []int64) error {
	w := len(o.sch)
	if len(o.out)+w > cap(o.out) {
		o.out = make([]int64, 0, min(max(2*cap(o.out), 16*w), keyChunk))
	}
	n := len(o.out)
	o.out = append(o.out, left...)
	for _, c := range o.rKeep {
		o.out = append(o.out, right[c])
	}
	var err error
	if len(o.pending) == cap(o.pending) {
		if len(o.pending) > 0 {
			o.ready = append(o.ready, o.pending)
			err = o.t.ex.ctx.Err()
		}
		o.pending = make([]rel.Tuple, 0, min(max(2*cap(o.pending), 64), o.t.ex.batchSize))
	}
	o.pending = append(o.pending, o.out[n:n+w:n+w])
	return err
}

func (o *hashJoinOp) next() ([]rel.Tuple, error) {
	for {
		if len(o.ready) > 0 {
			b := o.ready[0]
			o.ready = o.ready[1:]
			return b, nil
		}
		if n := len(o.pending); n > 0 {
			b := o.pending[:n:n] // later rows go after it, in the same array
			o.pending = o.pending[n:]
			return b, nil
		}
		if o.done[0] && o.done[1] {
			return nil, io.EOF
		}
		s := o.turn
		if o.done[s] {
			s = 1 - s
		}
		o.turn = 1 - s
		b, err := o.in[s].next()
		if err == io.EOF {
			o.done[s] = true
			continue
		}
		if err != nil {
			return nil, err
		}
		if err := o.t.ex.charge(o.t.worker, int64(len(b)), "hashjoin"); err != nil {
			return nil, err
		}
		t0 := time.Now()
		tab, other, cols := o.tabs[s], o.tabs[1-s], o.cols[s]
		for _, t := range b {
			h := keyHash(t, cols)
			if !o.done[1-s] { // nothing probes this side once the other is drained
				tab.insert(t, h, false)
			}
			for m := other.find(t, cols, h); m >= 0; m = other.next[m] {
				if s == 0 {
					err = o.emit(t, other.row(m))
				} else {
					err = o.emit(other.row(m), t)
				}
				if err != nil {
					return nil, err
				}
			}
		}
		o.t.ex.metrics.addHash(o.t.worker, time.Since(t0))
	}
}

// ---------------------------------------------------------------- tributary

// tributaryOp materializes its inputs (the post-shuffle fragments of every
// atom), sorts them, runs the Tributary join, and streams the result. Each
// input streams through its atom's Normalizer into a spill.Sorter, and the
// sorted runs become the trie arrays. The join runs as one or more shards
// (parallel.go; one shard when K≤1), each into its own spill.Buffer, and
// next() streams the buffers in shard order. With spilling enabled the
// Sorter and the Buffers seal to disk under pressure, so the working set is
// bounded by the run's budget; with it off they never seal, and a budget
// breach is the labelled ErrOutOfMemory. The "sort" phase covers receiving
// the input as well as sorting it, less the time spent blocked on the
// transport (the part of busy time the task's wait already excludes); the
// "join" phase covers the join.
type tributaryOp struct {
	t      *task
	q      *core.Query
	inputs map[string]operator
	order  []core.Var
	sch    rel.Schema

	stream  spill.Stream
	emitted int64 // rows next has taken from stream
}

func (o *tributaryOp) schema() rel.Schema { return o.sch }

// flatRows recycles the row-major scratches rows are gathered in on their
// way into a Sorter or Buffer: a received batch's normalized rows in the
// Tributary input loop, a rowBlock's rows. A scratch is held only until its
// rows are copied in, so the scratches in use follow the batches being
// copied, not the operators that exist. A pooled scratch is empty.
var flatRows = sync.Pool{New: func() any { return new([]int64) }}

// open sorts every input and runs the join into the output stream. The
// Sorter's merged order is bit-identical to an in-memory sort of the whole
// input, so a spilled run returns the unlimited run's rows exactly.
func (o *tributaryOp) open() error {
	e := o.t.ex
	atoms := make(map[string]core.Atom, len(o.q.Atoms))
	for _, a := range o.q.Atoms {
		atoms[a.Alias] = a
	}
	aliases := make([]string, 0, len(o.inputs))
	for alias := range o.inputs {
		aliases = append(aliases, alias)
	}
	sort.Strings(aliases)

	var inputTuples int64
	sortStart, wait0 := time.Now(), o.t.wait
	sorted := make(map[string]ljoin.Sorted, len(o.inputs))
	for _, alias := range aliases {
		in := o.inputs[alias]
		atom, ok := atoms[alias]
		if !ok {
			return fmt.Errorf("engine: tributary input %q matches no atom of %s", alias, o.q.Name)
		}
		if err := in.open(); err != nil {
			return err
		}
		sch := in.schema()
		if len(sch) != len(atom.Terms) {
			return fmt.Errorf("engine: atom %s has %d terms but input %s has arity %d",
				atom, len(atom.Terms), alias, len(sch))
		}
		// A batch received from an exchange is this task's alone, so once
		// its rows are copied out it goes back to the HyperCube pool. A
		// scan's batches view shared fragments and are never returned.
		recycle := receives(in)
		norm := ljoin.NewNormalizer(atom, o.order)
		arity := norm.Arity()
		var s ljoin.Sorted
		if arity == 0 {
			// Fully-constant atom: only existence matters, nothing is
			// materialized.
			for {
				b, err := in.next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				inputTuples += int64(len(b))
				for _, t := range b {
					if norm.Match(t) {
						s.Rows = 1
					}
				}
				if recycle {
					putBatch(b)
				}
			}
		} else {
			sorter := spill.NewSorter(e.spillConfig(o.t.worker, arity, "sort("+alias+")"))
			for {
				b, err := in.next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				inputTuples += int64(len(b))
				// The batch's normalized rows go into one flat scratch side by
				// side and reach the sorter in one AddFlat, which copies them.
				scratch := flatRows.Get().(*[]int64)
				flat := slices.Grow(*scratch, len(b)*arity)
				for _, t := range b {
					if row := flat[len(flat) : len(flat)+arity]; norm.ApplyInto(row, t) {
						flat = flat[:len(flat)+arity]
					}
				}
				err = sorter.AddFlat(flat)
				*scratch = flat[:0]
				flatRows.Put(scratch)
				if err != nil {
					return e.spillErr(o.t.worker, err)
				}
				if recycle {
					putBatch(b)
				}
			}
			// The sorted run's packed keys become the trie's backing
			// array. Its spilled part was charged to the disk cap when
			// sealed; the read-back is modeled as a disk-backed index, so
			// it is not re-charged to the tuple budget.
			words, layout, err := sorter.FinishPacked()
			if err != nil {
				return err
			}
			s = ljoin.Sorted{Rows: len(words) / layout.Words(), Words: words, Layout: layout}
		}
		if err := in.close(); err != nil {
			return err
		}
		sorted[alias] = s
	}

	p, err := ljoin.PrepareSorted(o.q, sorted, o.order)
	if err != nil {
		return err
	}
	sortDur := time.Since(sortStart) - (o.t.wait - wait0)
	e.metrics.addSort(o.t.worker, sortDur)
	e.metrics.addSorted(o.t.worker, inputTuples)
	o.emitPhase("sort", sortDur, inputTuples)

	// The join's one cancellation point: polled every 4096 leapfrog steps,
	// not per output row, so a join that emits nothing still stops. Shards
	// copy it, so it goes in first.
	p.SetStopCheck(func() bool { return e.ctx.Err() != nil })
	joinStart := time.Now()
	shards := o.shards(p)
	stream, err := o.join(shards)
	joinDur := time.Since(joinStart)
	e.metrics.addJoin(o.t.worker, joinDur)
	e.metrics.addSeeks(o.t.worker, shardSeeks(shards))
	var tuples int64
	if stream != nil {
		tuples = stream.Len()
	}
	o.emitPhase("join", joinDur, tuples)
	if err != nil {
		return err
	}
	o.stream = stream
	return nil
}

// emitPhase traces one Tributary phase (the per-worker breakdown behind
// the paper's Table 5).
func (o *tributaryOp) emitPhase(name string, d time.Duration, tuples int64) {
	e := o.t.ex
	if !e.tracer.Enabled() {
		return
	}
	e.tracer.Emit(trace.Event{
		Kind: trace.KindPhase, Run: e.epoch, Worker: o.t.worker,
		Exchange: o.t.exchange, Name: name, Tuples: tuples, Dur: d,
	})
}

func (o *tributaryOp) next() ([]rel.Tuple, error) {
	// Sized to the rows the stream has left, so the last batch of a short
	// join output is not a full batchSize allocation.
	left := o.stream.Len() - o.emitted
	if left <= 0 {
		return nil, io.EOF
	}
	b := make([]rel.Tuple, 0, min(int64(o.t.ex.batchSize), left))
	for len(b) < cap(b) {
		t, err := o.stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		b = append(b, t)
	}
	o.emitted += int64(len(b))
	if len(b) == 0 {
		return nil, io.EOF
	}
	return b, nil
}

func (o *tributaryOp) close() error {
	if o.stream != nil {
		return o.stream.Close()
	}
	return nil
}

// ---------------------------------------------------------------- recv

// receives reports whether op's batches come straight from an exchange:
// op is a recvOp, or the tracing shim around one.
func receives(op operator) bool {
	if s, ok := op.(*spanOp); ok {
		op = s.in
	}
	_, ok := op.(*recvOp)
	return ok
}

type recvOp struct {
	t        *task
	exchange int
	sch      rel.Schema
}

func (o *recvOp) schema() rel.Schema { return o.sch }
func (o *recvOp) open() error        { return nil }
func (o *recvOp) close() error       { return nil }

func (o *recvOp) next() ([]rel.Tuple, error) {
	start := time.Now()
	b, ok, err := o.t.ex.transport.Recv(o.t.ex.ctx, o.t.ex.wireID(o.exchange), o.t.worker)
	o.t.wait += time.Since(start)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, io.EOF
	}
	o.t.ex.metrics.addReceived(o.exchange, o.t.worker, int64(len(b)))
	o.t.ex.metrics.addProcessed(o.t.worker, int64(len(b)))
	return b, nil
}
