package spill

import (
	"fmt"
	"io"
	"slices"
	"time"

	"parajoin/internal/rel"
)

// Stream yields tuples a batch at a time; Next returns io.EOF after the
// last batch. A batch Next returns is its caller's: nothing else writes
// to it, and it stays valid after the next call. It may hold any number of
// rows, so a consumer with its own batch size copies them out. Close
// releases a stream's buffers; streams over spilled state read their
// run's file, so they must be done before its Dir is removed.
type Stream interface {
	Next() (rel.Batch, error)
	// Len is the total number of tuples the stream yields.
	Len() int64
	Close() error
}

// Drain materializes a stream and closes it; bench/'s ledger and tests
// call it. Its rows are views of the stream's batches, so the rows of an
// in-memory stream stay views into its run's arena: no value is copied.
func Drain(s Stream) ([]rel.Tuple, error) {
	out := make([]rel.Tuple, 0, s.Len())
	for {
		b, err := s.Next()
		if err == io.EOF {
			return out, s.Close()
		}
		if err != nil {
			s.Close()
			return nil, err
		}
		for i := range b.Len() {
			out = append(out, b.Row(i))
		}
	}
}

// spiller is the run/seal machinery shared by Sorter and Buffer: an
// in-memory arena run charged to the accountant, sealed to an extent of
// the run's spill file when the budget (or the Always threshold) says so.
// A Sorter's spiller sorts each run before it leaves memory.
type spiller struct {
	cfg      Config
	run      arenaRun
	sorts    bool
	segs     []extent
	total    int64
	reserved int64 // tuples of run currently charged to the accountant
	finished bool
	lo, hi   []int64 // a Sorter's per-column ranges over its sealed runs
}

// extent is one sealed run: a segment of bytes bytes at off in dir's run
// file.
type extent struct {
	dir        *Dir
	off, bytes int64
	tuples     int64
}

func newSpiller(cfg Config, sorts bool) spiller {
	return spiller{cfg: cfg, run: newArenaRun(cfg.Arity), sorts: sorts}
}

// spillable reports whether this run may seal to disk at all.
func (s *spiller) spillable() bool {
	return (s.cfg.Policy == OnPressure || s.cfg.Policy == Always) && s.cfg.Create != nil
}

// Add adds one tuple: AddBatch with a one-row batch. The caller keeps t
// and may reuse it at once.
func (s *spiller) Add(t rel.Tuple) error { return s.AddBatch(rel.BatchOf(len(t), 1, t)) }

// AddBatch adds b's rows, copying their values into the run. The caller
// keeps b and may reuse it at once. It takes the rows in stretches: each
// stretch is one budget reservation and one bulk copy per arena chunk it
// fills. The result is exactly that of adding the rows one at a time —
// the same seals, the same peaks, the same error after the same rows —
// because a stretch is only taken whole when every one of its rows would
// have fitted on its own. The batch's row count carries rows of arity 0,
// which have no values to lay out.
func (s *spiller) AddBatch(b rel.Batch) error {
	if b.Arity != s.cfg.Arity {
		return fmt.Errorf("spill: %s: adding arity-%d rows to arity-%d run", s.cfg.Label, b.Arity, s.cfg.Arity)
	}
	if len(b.Vals) != b.Len()*b.Arity {
		return fmt.Errorf("spill: %s: adding %d values as %d rows of arity %d", s.cfg.Label, len(b.Vals), b.Len(), b.Arity)
	}
	return s.add(b.Vals, b.Len())
}

// add reserves and copies rows rows of vals, sealing the current run first
// whenever the policy calls for it. Under Always a stretch ends where the
// run reaches its seal size. A stretch the budget refuses is retaken one
// row at a time until a seal frees room; the rows after it go back to
// stretches.
func (s *spiller) add(vals []int64, rows int) error {
	a := s.cfg.Arity
	always := s.cfg.Policy == Always && s.spillable()
	single := 0 // rows of a refused stretch still to take one at a time
	for rows > 0 {
		if always && s.run.rows >= s.cfg.sealTuples() {
			if err := s.seal(); err != nil {
				return err
			}
		}
		k := 1
		if single == 0 {
			k = rows
			if always {
				k = min(k, s.cfg.sealTuples()-s.run.rows)
			}
		}
		if !s.cfg.Acct.Reserve(s.cfg.Worker, int64(k)) {
			if k > 1 {
				single = k
				continue
			}
			// Budget pressure. Without a disk escape the run is genuinely
			// out of memory; otherwise seal what we hold and try again.
			if !s.spillable() {
				s.cfg.Acct.Blow(s.cfg.Worker, s.cfg.Label)
				return ErrBudget
			}
			if err := s.seal(); err != nil {
				return err
			}
			single = 0
			if !s.cfg.Acct.Reserve(s.cfg.Worker, 1) {
				// The whole budget is held by operators that cannot free
				// anything here. Progress is still possible without growing
				// resident state: push the row through an unreserved
				// singleton run straight to disk. Degenerate (one segment
				// per row) but bounded — the last resort before failing.
				s.run.push(vals[:a], 1)
				s.total++
				if err := s.seal(); err != nil {
					return err
				}
				vals, rows = vals[a:], rows-1
				continue
			}
		}
		s.reserved += int64(k)
		s.run.push(vals[:k*a], k)
		s.total += int64(k)
		vals, rows = vals[k*a:], rows-k
		if single > 0 {
			single--
		}
	}
	return nil
}

// seal writes the in-memory run as a new extent of the run file and
// releases its reservation. A Sorter's run sorts first (the external-sort
// invariant) and is encoded from its packed rows, column by column; a
// Buffer's is encoded from row views in append order. The run is encoded
// before anything touches the disk, so the disk cap is checked against its
// exact size and a refused seal writes nothing.
func (s *spiller) seal() error {
	n := int64(s.run.rows)
	if n == 0 {
		return nil
	}
	start := time.Now()
	st := encodePool.Get().(*encodeState)
	defer encodePool.Put(st)
	var data []byte
	var err error
	if s.sorts {
		sc := scratchPool.Get().(*sortScratch)
		words, p := s.run.sortPacked(sc)
		s.widen()
		data, err = st.appendPacked(st.buf[:0], words, &p)
		scratchPool.Put(sc)
	} else {
		st.views = s.run.appendViews(st.views[:0])
		data, err = appendSegment(st.buf[:0], &st.enc, s.cfg.Arity, st.views)
		clear(st.views) // the pool must not pin this run's arena
	}
	if err != nil {
		return err
	}
	st.buf = data
	size := int64(len(data))
	if err := s.cfg.Acct.ReserveDisk(size); err != nil {
		return err
	}
	d, err := s.cfg.Create()
	if err != nil {
		return err
	}
	off, err := d.append(data)
	if err != nil {
		return err
	}
	counters.segments.Add(1)
	counters.bytesWritten.Add(size)
	s.segs = append(s.segs, extent{dir: d, off: off, bytes: size, tuples: n})
	s.cfg.Acct.Release(s.cfg.Worker, s.reserved)
	s.reserved = 0
	counters.spills.Add(1)
	if s.cfg.OnSpill != nil {
		s.cfg.OnSpill(Event{Label: s.cfg.Label, Tuples: n, Bytes: size, Dur: time.Since(start)})
	}
	s.run.reset()
	return nil
}

// widen folds the run just sorted's column ranges into the ranges of
// every run sealed so far, which a spilled FinishPacked lays its rows out
// for.
func (s *spiller) widen() {
	if s.lo == nil {
		s.lo, s.hi = slices.Clone(s.run.lo), slices.Clone(s.run.hi)
		return
	}
	for j := range s.lo {
		s.lo[j], s.hi[j] = min(s.lo[j], s.run.lo[j]), max(s.hi[j], s.run.hi[j])
	}
}

// Spilled reports whether any run was sealed to disk.
func (s *spiller) Spilled() bool { return len(s.segs) > 0 }

// Segments returns how many runs were sealed to disk.
func (s *spiller) Segments() int { return len(s.segs) }

// Len returns the tuples added so far.
func (s *spiller) Len() int64 { return s.total }

// Reserved returns the tuples of the in-memory run charged to the
// accountant.
func (s *spiller) Reserved() int64 { return s.reserved }

// finish ends the run. With nothing on disk it returns no readers: the
// run stays in memory, unsorted. Otherwise it seals the residual run too,
// releasing its reservation — downstream operators get the budget back
// and the readers see only extents — and returns a reader over every
// extent, in seal order.
// The spiller must not be used after finish.
func (s *spiller) finish() ([]*SegmentReader, error) {
	if s.finished {
		return nil, fmt.Errorf("spill: %s: finished twice", s.cfg.Label)
	}
	s.finished = true
	if len(s.segs) == 0 {
		return nil, nil
	}
	if err := s.seal(); err != nil {
		return nil, err
	}
	segs := make([]*SegmentReader, 0, len(s.segs))
	for _, x := range s.segs {
		r, err := NewSegmentReader(io.NewSectionReader(x.dir.f, x.off, x.bytes), s.cfg.Arity, x.tuples)
		if err != nil {
			for _, r := range segs {
				r.Close() // drops buffers only; it cannot fail
			}
			return nil, err
		}
		segs = append(segs, r)
	}
	return segs, nil
}

// Sorter is an external merge sort: tuples are added in any order, sealed
// runs are sorted before they hit disk, and FinishPacked returns a k-way
// merge over the segments, or the sorted in-memory run — the exact
// sequence an in-memory sort of the whole input would produce
// (lexicographic tuple order; duplicates survive, as Tributary's sorted
// arrays require).
type Sorter struct{ spiller }

// NewSorter creates a sorter configured by cfg.
func NewSorter(cfg Config) *Sorter { return &Sorter{newSpiller(cfg, true)} }

// Finish is FinishPacked handing the sorted rows over as a stream: each
// Next unpacks up to segChunkRows of them into storage of their own. The
// sorter must not be used after Finish.
func (s *Sorter) Finish() (Stream, error) {
	words, p, err := s.FinishPacked()
	if err != nil {
		return nil, err
	}
	return &unpackStream{words: words, p: p, total: s.total}, nil
}

// FinishPacked returns the tuples in sorted order, packed: Len() rows of
// p.Words() words each, one row after another, whose unsigned
// lexicographic order is the rows' order, and the layout p
// (over columns 0..arity-1) that decodes them. An in-memory run whose rows
// fit one word hands over its radix sort's own key array, with no row
// unpacked or copied, and a wider one is sorted in its arena and packed in
// order; either way the arena goes back to the chunk pools. A spilled
// sort's runs are re-packed under a layout fitted to the ranges they all
// had when they were sorted and merged word by word straight into the
// result (mergePacked). The sorter must not be used after FinishPacked.
func (s *Sorter) FinishPacked() ([]uint64, rel.KeyPacker, error) {
	rs, err := s.finish()
	if err != nil {
		return nil, rel.KeyPacker{}, err
	}
	if rs == nil {
		words, p := s.run.packed()
		s.run.release() // the words hold the rows; the next run reuses the arena
		return words, p, nil
	}
	p := rel.NewRowPacker(s.lo, s.hi)
	words, err := mergePacked(rs, p, s.total, s.cfg.Label)
	if err != nil {
		return nil, rel.KeyPacker{}, err
	}
	return words, p, nil
}

// memStream is a Buffer's no-spill fast path: the whole run is in
// memory, and each batch it yields is one of the run's arena chunks.
type memStream struct {
	run   arenaRun
	chunk int // the next batch's chunk
	left  int // rows not yet yielded
}

func (m *memStream) Next() (rel.Batch, error) {
	if m.left == 0 {
		return rel.Batch{}, io.EOF
	}
	c := m.run.chunks[m.chunk]
	m.chunk++
	n := m.left // rows of arity 0 take no values: they all come at once
	if a := m.run.arity; a > 0 {
		n = len(c) / a
	}
	m.left -= n
	return rel.BatchOf(m.run.arity, n, c), nil
}

func (m *memStream) Len() int64   { return int64(m.run.rows) }
func (m *memStream) Close() error { return nil }

// unpackStream is a Sorter's Finish: FinishPacked's rows, unpacked a batch
// of at most segChunkRows rows at a time into storage the stream never
// touches again.
type unpackStream struct {
	words []uint64 // the rows not yet yielded, p.Words() words each
	p     rel.KeyPacker
	total int64
}

func (u *unpackStream) Next() (rel.Batch, error) {
	w, a := u.p.Words(), len(u.p.Fields())
	n := min(len(u.words)/w, segChunkRows)
	if n == 0 {
		return rel.Batch{}, io.EOF
	}
	vals := make([]int64, n*a)
	for i := range n {
		u.p.Unpack(u.words[i*w:(i+1)*w], vals[i*a:(i+1)*a])
	}
	u.words = u.words[n*w:]
	return rel.BatchOf(a, n, vals), nil
}

func (u *unpackStream) Len() int64 { return u.total }
func (u *unpackStream) Close() error {
	u.words = nil
	return nil
}
