package spill

import (
	"fmt"
	"io"
	"slices"
	"time"

	"parajoin/internal/rel"
)

// Stream yields tuples one at a time; Next returns io.EOF after the
// last. Close releases a stream's buffers; streams over spilled state read
// their run's file, so they must be done before its Dir is removed.
type Stream interface {
	Next() (rel.Tuple, error)
	// Len is the total number of tuples the stream yields.
	Len() int64
	Close() error
}

// Drain materializes a stream and closes it. The rows of an in-memory
// stream stay views into its run's arena: no value is copied.
func Drain(s Stream) ([]rel.Tuple, error) {
	out := make([]rel.Tuple, 0, s.Len())
	for {
		t, err := s.Next()
		if err == io.EOF {
			return out, s.Close()
		}
		if err != nil {
			s.Close()
			return nil, err
		}
		out = append(out, t)
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

// Add adds one tuple: AddFlat with a one-row batch, and the only way to add
// a zero-arity row, which has no values to lay out. The caller keeps t and
// may reuse it at once.
func (s *spiller) Add(t rel.Tuple) error {
	if len(t) != s.cfg.Arity {
		return fmt.Errorf("spill: %s: adding arity-%d tuple to arity-%d run", s.cfg.Label, len(t), s.cfg.Arity)
	}
	return s.add(t, 1)
}

// AddFlat adds len(vals)/arity rows laid out row-major in vals, copying
// their values into the run. The caller keeps vals and may reuse it at
// once. It takes the rows in stretches: each stretch is one budget
// reservation and one bulk copy per arena chunk it fills. The result is
// exactly that of adding the rows one at a time — the same seals, the same
// peaks, the same error after the same rows — because a stretch is only
// taken whole when every one of its rows would have fitted on its own.
// The arity must be at least 1: a zero-arity row has no values to lay out,
// so it goes through Add.
func (s *spiller) AddFlat(vals []int64) error {
	a := s.cfg.Arity
	if a == 0 || len(vals)%a != 0 {
		return fmt.Errorf("spill: %s: adding %d values to an arity-%d run", s.cfg.Label, len(vals), a)
	}
	return s.add(vals, len(vals)/a)
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
// runs are sorted before they hit disk, and Finish returns a k-way merge
// over the segments, or the sorted in-memory run — the exact sequence
// an in-memory sort of the whole input would produce (lexicographic
// tuple order; duplicates survive, as Tributary's sorted arrays require).
type Sorter struct{ spiller }

// NewSorter creates a sorter configured by cfg.
func NewSorter(cfg Config) *Sorter { return &Sorter{newSpiller(cfg, true)} }

// Finish returns the tuples as one stream in sorted order. An in-memory
// run is sorted as FinishPacked sorts it: rows wider than one word in place
// in its arena, one-word rows as packed keys that are unpacked back into
// it. A spilled sort's rows are merged as FinishPacked merges them and
// unpacked into arenas of their own, so every row stays valid after the
// next. The sorter must not be used after Finish.
func (s *Sorter) Finish() (Stream, error) {
	rs, err := s.finish()
	if err != nil {
		return nil, err
	}
	if rs == nil {
		sc := scratchPool.Get().(*sortScratch)
		defer scratchPool.Put(sc)
		words, p := s.run.sortPacked(sc)
		if p.Words() == 1 { // wider rows are already sorted in the arena
			for _, c := range s.run.chunks[:s.run.cur+1] {
				for i := 0; i < len(c); i += s.cfg.Arity {
					p.Unpack(words[:1], c[i:i+s.cfg.Arity])
					words = words[1:]
				}
			}
		}
		return &memStream{run: s.run, left: s.run.rows}, nil
	}
	m, err := newMerger(rs, rel.NewRowPacker(s.lo, s.hi), s.total, s.cfg.Label)
	if err != nil {
		return nil, err
	}
	return &unpackStream{m: m, row: make([]uint64, m.w)}, nil
}

// FinishPacked is Finish handing the sorted rows over packed rather than
// as a stream: Len() rows of p.Words() words each, one row after another,
// whose unsigned lexicographic order is the rows' order, and the layout p
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

// memStream is the no-spill fast path: the whole (sorted or
// append-ordered) run is in memory, and each row it yields is a
// capacity-clamped view into the run's arena.
type memStream struct {
	run        arenaRun
	chunk, off int // the next row's chunk and offset in it
	left       int // rows not yet yielded
}

func (m *memStream) Next() (rel.Tuple, error) {
	if m.left == 0 {
		return nil, io.EOF
	}
	m.left--
	a := m.run.arity
	if a == 0 {
		return rel.Tuple{}, nil
	}
	for m.off == len(m.run.chunks[m.chunk]) {
		m.chunk, m.off = m.chunk+1, 0
	}
	c := m.run.chunks[m.chunk]
	t := c[m.off : m.off+a : m.off+a]
	m.off += a
	return t, nil
}

func (m *memStream) Len() int64   { return int64(m.run.rows) }
func (m *memStream) Close() error { return nil }

// unpackStream is a spilled Sorter's Finish: each merged row is unpacked
// into a block of segChunkRows rows that the stream allocates and never
// reuses, so a row stays valid after the next, as Drain requires.
type unpackStream struct {
	m     *merger
	row   []uint64 // the popped row's words
	block []int64
}

func (u *unpackStream) Next() (rel.Tuple, error) {
	if u.m.left == 0 {
		return nil, io.EOF
	}
	if err := u.m.pop(u.row); err != nil {
		return nil, err
	}
	a := len(u.m.p.Fields())
	if len(u.block)+a > cap(u.block) {
		u.block = make([]int64, 0, segChunkRows*a)
	}
	n := len(u.block)
	u.block = u.block[:n+a]
	t := rel.Tuple(u.block[n : n+a : n+a])
	u.m.p.Unpack(u.row, t)
	return t, nil
}

func (u *unpackStream) Len() int64 { return u.m.total }
func (u *unpackStream) Close() error {
	u.m.close()
	return nil
}
