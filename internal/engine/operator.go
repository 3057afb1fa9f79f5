package engine

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
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
// io.EOF after the last batch. A batch next returns is its caller's: the
// operator never reads or writes it again, and the caller may hand it to
// the run's free list once its rows are copied out (exec.recycle). A batch
// may hold more than BatchSize rows: the Tributary join passes on its
// output stream's batches (copies of arena chunks and segment batches of
// up to 4 096 rows).
type operator interface {
	schema() rel.Schema
	open() error
	next() (rel.Batch, error)
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

// next copies the fragment's next rows into a batch of the caller's own:
// the fragment is shared storage.
func (o *scanOp) next() (rel.Batch, error) {
	n := min(o.t.ex.batchSize, len(o.rows)-o.pos)
	if n <= 0 {
		return rel.Batch{}, io.EOF
	}
	b := o.t.ex.batch(len(o.sch), n)
	for _, t := range o.rows[o.pos : o.pos+n] {
		b.Append(t)
	}
	o.pos += n
	o.t.ex.metrics.addProcessed(o.t.worker, int64(n))
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

// next keeps the passing rows of its input batch, compacted to its front.
func (o *selectOp) next() (rel.Batch, error) {
	for {
		b, err := o.in.next()
		if err != nil {
			return rel.Batch{}, err
		}
		out := rel.BatchOf(b.Arity, 0, b.Vals[:0])
		for i := range b.Len() {
			t := b.Row(i)
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
				out.Append(t)
			}
		}
		if out.Len() > 0 {
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
	row   rel.Tuple // the row being projected
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
	o.row = make(rel.Tuple, len(o.cols))
	return o.in.open()
}

func (o *projectOp) close() error {
	if o.seen != nil {
		o.t.ex.held[o.t.worker].hash.Add(-o.seen.values())
		o.seen = nil
	}
	return o.in.close()
}

func (o *projectOp) next() (rel.Batch, error) {
	for {
		b, err := o.in.next()
		if err != nil {
			return rel.Batch{}, err
		}
		out := o.t.ex.batch(len(o.cols), b.Len())
		for i := range b.Len() {
			t := b.Row(i)
			for j, c := range o.cols {
				o.row[j] = t[c]
			}
			if o.dedup {
				if !o.seen.insert(o.row, keyHash(o.row, o.seen.cols), true) {
					continue
				}
				if err := o.t.ex.charge(o.t.worker, 1, len(o.row), "project-dedup"); err != nil {
					return rel.Batch{}, err
				}
				o.t.ex.held[o.t.worker].hash.Add(int64(len(o.row)))
			}
			out.Append(o.row)
		}
		o.t.ex.recycle(b)
		if out.Len() > 0 {
			return out, nil
		}
		o.t.ex.recycle(out)
	}
}

// ---------------------------------------------------------------- hash join

// hashJoinOp is the symmetric (pipelined) hash join: hash tables on both
// sides, each arriving batch inserted into its side's table and probed
// against the other. Each pull takes the side that has delivered fewer
// rows so far, ties going to the right side (the plan's next atom), so a
// side that arrives in full batches waits while a small side trickles in
// — the paper's "if one input does not have any data, the join pulls the
// other input". Once a side is exhausted nothing can probe the other
// side's table again, so that table is dropped and the rest of the other
// side is probed without being stored: a join stores at most twice its
// smaller side's rows plus one batch, whatever the arrival order. Side 0
// is the left input, side 1 the right. Each side's table owns copies of
// its rows (keyTable), and a key's matches come back in the other side's
// insertion order.
//
// next returns as soon as its output batch is full and resumes the probe
// where it stopped: in the input batch b, at row pos, at match m of the
// other side's chain. One probe row over a heavy key can match millions of
// rows, and the join holds at most one output batch of them at a time. The
// output batch grows as the router's do, so a join that emits a handful of
// rows holds a small one. Each joined row is written straight into it: the
// left row's values, then the right row's rKeep columns.
type hashJoinOp struct {
	t     *task
	in    [2]operator
	cols  [2][]int // each side's key columns
	sch   rel.Schema
	rKeep []int

	tabs   [2]*keyTable // nil once the other side is exhausted
	done   [2]bool
	pulled [2]int    // rows received from each side so far
	side   int       // the side b came from
	b      rel.Batch // the input batch being probed
	pos    int       // the row of b being probed
	m      int32     // its next match in the other side's table, or -1
	out    rel.Batch // joined rows are written into it in place
}

func (o *hashJoinOp) schema() rel.Schema { return o.sch }

func (o *hashJoinOp) open() error {
	for s, in := range o.in {
		o.tabs[s] = newKeyTable(len(in.schema()), o.cols[s])
		if err := in.open(); err != nil {
			return err
		}
	}
	o.m = -1
	return nil
}

func (o *hashJoinOp) close() error {
	for s := range o.tabs {
		o.drop(s)
	}
	err1 := o.in[0].close()
	err2 := o.in[1].close()
	if err1 != nil {
		return err1
	}
	return err2
}

// next probes until the output batch fills (then polls the run's context).
func (o *hashJoinOp) next() (rel.Batch, error) {
	e := o.t.ex
	for {
		if o.pos < o.b.Len() {
			t0 := time.Now()
			full, probed := o.probe()
			built := probed
			if tab := o.tabs[o.side]; tab == nil {
				built = 0
			} else {
				e.held[o.t.worker].hash.Add(int64(built * tab.arity))
			}
			e.metrics.addHash(o.t.worker, time.Since(t0), int64(built), int64(probed))
			if full {
				b := o.out
				o.out = rel.Batch{}
				return b, e.ctx.Err()
			}
			continue
		}
		e.recycle(o.b) // its rows are in the table and the output
		o.b = rel.Batch{}
		if o.done[0] && o.done[1] {
			b := o.out
			o.out = rel.Batch{}
			if b.Len() == 0 {
				return b, io.EOF
			}
			return b, nil
		}
		s := 1
		if o.done[1] || !o.done[0] && o.pulled[0] < o.pulled[1] {
			s = 0
		}
		b, err := o.in[s].next()
		if err == io.EOF {
			o.done[s] = true
			o.drop(1 - s) // only side s's rows probe it
			continue
		}
		if err != nil {
			return rel.Batch{}, err
		}
		o.pulled[s] += b.Len()
		if err := e.charge(o.t.worker, int64(b.Len()), b.Arity, "hashjoin"); err != nil {
			return rel.Batch{}, err
		}
		o.side, o.b = s, b
		o.pos, o.m = -1, -1 // probe from its first row
	}
}

// drop lets side s's table go.
func (o *hashJoinOp) drop(s int) {
	if tab := o.tabs[s]; tab != nil {
		o.t.ex.held[o.t.worker].hash.Add(-tab.values())
		o.tabs[s] = nil
	}
}

// probe resumes the probe of o.b, inserting each row into its side's
// table as it reaches it, and reports whether it stopped because the
// output batch filled (otherwise every row of o.b has been probed) and
// how many rows of o.b it began to probe.
func (o *hashJoinOp) probe() (full bool, probed int) {
	s := o.side
	tab, other, cols := o.tabs[s], o.tabs[1-s], o.cols[s]
	for {
		for o.m < 0 {
			o.pos++
			if o.pos == o.b.Len() {
				return false, probed
			}
			probed++
			t := o.b.Row(o.pos)
			h := keyHash(t, cols)
			if tab != nil { // dropped once nothing can probe it
				tab.insert(t, h, false)
			}
			o.m = other.find(t, cols, h)
		}
		if o.out.Len() == o.t.ex.batchSize {
			return true, probed
		}
		o.t.ex.grow(&o.out, len(o.sch), batchStart)
		left, right := o.b.Row(o.pos), other.row(o.m)
		if s == 1 {
			left, right = right, left
		}
		row := o.out.Extend()
		for i, v := range left {
			row[i] = v
		}
		keep := row[len(left):]
		for i, c := range o.rKeep {
			keep[i] = right[c]
		}
		o.m = other.next[o.m]
	}
}

// ---------------------------------------------------------------- tributary

// tributaryOp materializes its inputs (the post-shuffle fragments of every
// atom), sorts them, runs the Tributary join, and streams the result. Each
// input streams through its atom's Normalizer into a spill.Sorter, and the
// sorted runs become the trie arrays. The join runs as one or more shards
// (parallel.go; one shard when K≤1), each into its own spill.Buffer, and
// next() streams the buffers in shard order, one copy of a stream batch
// per call, which may hold more than BatchSize rows. With spilling enabled
// the Sorter and the Buffers seal to disk under pressure, so the working
// set is bounded by the run's budget; with it off they never seal, and a
// budget breach is the labelled ErrOutOfMemory. The "sort" phase covers
// receiving the input as well as sorting it, less the time spent blocked
// on the transport (the part of busy time the task's wait already
// excludes); the "join" phase covers the join.
type tributaryOp struct {
	t      *task
	q      *core.Query
	inputs map[string]operator
	order  []core.Var
	sch    rel.Schema

	stream spill.Stream
}

func (o *tributaryOp) schema() rel.Schema { return o.sch }

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

	// Each Sorter's arena is held until it finishes, its sorted words and
	// then the tries' directories until the join has run. A finished
	// Sorter's reservation stands for its words until then, and is
	// released when open returns, on every path.
	ledger, trie := &e.held[o.t.worker], int64(0)
	var reserved, reservedVals int64 // what the finished Sorters still charge
	defer func() {
		ledger.sorted.Add(-trie)
		e.acct.Release(o.t.worker, reserved)
		ledger.sortCharged.Add(-reservedVals)
	}()
	holdTrie := func(n int64) { ledger.sorted.Add(n); trie += n }

	var inputTuples int64
	var flat []int64 // a batch's normalized rows, side by side
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
		norm := ljoin.NewNormalizer(atom, o.order)
		arity := norm.Arity()
		// A fully-constant atom has arity 0: only existence matters and
		// nothing is materialized.
		var s ljoin.Sorted
		var sorter *spill.Sorter
		if arity > 0 {
			sorter = spill.NewSorter(e.spillConfig(o.t.worker, arity, "sort("+alias+")", true))
		}
		for {
			b, err := in.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			inputTuples += int64(b.Len())
			// The batch's normalized rows reach the sorter in one AddBatch,
			// which copies them.
			flat = slices.Grow(flat[:0], b.Len()*arity)
			for i := range b.Len() {
				if row := flat[len(flat) : len(flat)+arity]; norm.ApplyInto(row, b.Row(i)) {
					flat = flat[:len(flat)+arity]
					s.Rows = 1
				}
			}
			e.recycle(b)
			if sorter != nil {
				if err := e.addToSpill(o.t.worker, sorter, rel.BatchOf(arity, len(flat)/arity, flat)); err != nil {
					return e.spillErr(o.t.worker, err)
				}
			}
		}
		if sorter != nil {
			// The sorted run's packed keys become the trie's backing
			// array. Its spilled part was charged to the disk cap when
			// sealed; the read-back is modeled as a disk-backed index, so
			// it is not re-charged to the tuple budget.
			words, layout, err := sorter.FinishPacked()
			if err != nil {
				return err
			}
			s = ljoin.Sorted{Rows: len(words) / layout.Words(), Words: words, Layout: layout}
			// A spilled finish sealed the in-memory run and released it; an
			// in-memory one keeps its reservation, and the words hold its
			// rows now.
			arena := sorter.Reserved()
			reserved += arena
			reservedVals += arena * int64(arity)
			ledger.sorted.Add(-arena * int64(arity))
			holdTrie(int64(len(words)))
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
	holdTrie(p.Held() - trie)
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

// next returns the stream's next batch, copied into batch-store storage.
func (o *tributaryOp) next() (rel.Batch, error) {
	sb, err := o.stream.Next()
	if err != nil {
		return rel.Batch{}, err
	}
	// The stream's batch is not handed on as it is: an arena chunk would
	// reach whoever recycles the batch once its rows are copied out (a
	// router after routing it, runRoot when it is at least a quarter
	// empty), and the store would take in storage it never handed out, run
	// after run.
	// In TestBatchStoreBalance, passing the chunk on grew the store from
	// 45 568 values after run 2 to 233 728 after run 20 with spilling off,
	// and from 46 080 to 232 704 on-pressure (2-core host).
	b := o.t.ex.batch(sb.Arity, sb.Len())
	return rel.BatchOf(sb.Arity, sb.Len(), append(b.Vals, sb.Vals...)), nil
}

func (o *tributaryOp) close() error {
	if o.stream != nil {
		return o.stream.Close()
	}
	return nil
}

// ---------------------------------------------------------------- recv

type recvOp struct {
	t        *task
	exchange int
	sch      rel.Schema
}

func (o *recvOp) schema() rel.Schema { return o.sch }
func (o *recvOp) open() error        { return nil }
func (o *recvOp) close() error       { return nil }

func (o *recvOp) next() (rel.Batch, error) {
	start := time.Now()
	b, ok, err := o.t.ex.transport.Recv(o.t.ex.ctx, o.t.ex.wireID(o.exchange), o.t.worker)
	o.t.wait += time.Since(start)
	if err != nil {
		return rel.Batch{}, err
	}
	if !ok {
		return rel.Batch{}, io.EOF
	}
	o.t.ex.metrics.addReceived(o.exchange, o.t.worker, int64(b.Len()))
	o.t.ex.metrics.addProcessed(o.t.worker, int64(b.Len()))
	return b, nil
}
