package spill

import (
	"fmt"
	"io"
	"math"
	"slices"

	"parajoin/internal/colbatch"
	"parajoin/internal/rel"
)

// merger is the k-way merge of a spilled Sorter's sealed runs on packed
// words. Each run's reader decodes one batch at a time into an arena it
// reuses, and the batch is packed under the sorter-wide layout p into the
// run's word buffer. A loser tree over the runs' head rows picks the next
// row by comparing words: one compare per tree level for a one-word
// layout. Ties break by run index, which keeps the merge deterministic;
// since tied rows are equal, the output is an in-memory sort's either
// way.
type merger struct {
	p     rel.KeyPacker
	w     int // p.Words()
	srcs  []mergeSource
	tree  []int // tree[0] is the winning run, tree[n] the run that lost at internal node n
	left  int64 // rows not yet popped
	label string
}

// mergeSource is one sealed run being merged.
type mergeSource struct {
	r     *SegmentReader
	batch colbatch.Batch
	words []uint64 // the current batch's rows, packed
	pos   int      // the head row's first word in words
	head  uint64   // words[pos], or the largest word once done
	done  bool     // the run has no rows left
}

// mergePacked merges the sorted runs rs read, which hold total rows
// between them, into one array of rows packed under p, and closes every
// reader.
func mergePacked(rs []*SegmentReader, p rel.KeyPacker, total int64, label string) ([]uint64, error) {
	m := &merger{p: p, w: p.Words(), srcs: make([]mergeSource, len(rs)), tree: make([]int, len(rs)),
		left: total, label: label}
	defer m.close()
	for i, r := range rs {
		m.srcs[i].r = r
	}
	for i := range m.srcs {
		if err := m.fill(i); err != nil {
			return nil, err
		}
	}
	m.tree[0] = m.play(1)
	words := make([]uint64, total*int64(m.w))
	for i := 0; i < len(words); i += m.w {
		if err := m.pop(words[i : i+m.w]); err != nil {
			return nil, err
		}
	}
	return words, nil
}

// play fills in the losers of the subtree at node n, whose leaves are
// nodes len(srcs) onward (run i is leaf len(srcs)+i), and returns its
// winner.
func (m *merger) play(n int) int {
	if n >= len(m.srcs) {
		return n - len(m.srcs)
	}
	a, b := m.play(2*n), m.play(2*n+1)
	if m.less(a, b) {
		m.tree[n] = b
		return a
	}
	m.tree[n] = a
	return b
}

// less reports whether run a's head row goes before run b's. A run with
// no rows left goes after every other.
func (m *merger) less(a, b int) bool {
	x, y := &m.srcs[a], &m.srcs[b]
	if x.head != y.head {
		return x.head < y.head
	}
	if x.done || y.done {
		return !x.done
	}
	for j := 1; j < m.w; j++ {
		if kx, ky := x.words[x.pos+j], y.words[y.pos+j]; kx != ky {
			return kx < ky
		}
	}
	return a < b
}

// fill reads run i's next non-empty batch and packs it, or marks the run
// done after its last.
func (m *merger) fill(i int) error {
	s := &m.srcs[i]
	for {
		_, err := s.r.loadBatch(&s.batch)
		if err == io.EOF {
			s.done, s.head = true, math.MaxUint64
			return nil
		}
		if err != nil {
			return fmt.Errorf("spill: %s: merging sealed run %d: %w", m.label, i, err)
		}
		rows, a, w := s.batch.Rows(), s.batch.Cols(), m.w
		if rows == 0 {
			continue
		}
		vals := s.batch.Values()
		s.words = slices.Grow(s.words[:0], rows*w)[:rows*w]
		if w == 1 {
			for k := range s.words {
				s.words[k] = m.p.Pack(vals[k*a : (k+1)*a])
			}
		} else {
			for k := range rows {
				m.p.PackInto(s.words[k*w:(k+1)*w], vals[k*a:(k+1)*a])
			}
		}
		s.pos, s.head = 0, s.words[0]
		return nil
	}
}

// pop copies the next row's words into dst and moves the winning run on,
// replaying its path to the root. There must be a row left.
func (m *merger) pop(dst []uint64) error {
	i := m.tree[0]
	s := &m.srcs[i]
	if s.done {
		return fmt.Errorf("spill: %s: sealed runs hold %d rows fewer than were added", m.label, m.left)
	}
	if m.w == 1 {
		dst[0] = s.head
	} else {
		copy(dst, s.words[s.pos:s.pos+m.w])
	}
	m.left--
	if s.pos += m.w; s.pos < len(s.words) {
		s.head = s.words[s.pos]
	} else if err := m.fill(i); err != nil {
		return err
	}
	for n := (i + len(m.srcs)) / 2; n > 0; n /= 2 {
		if m.less(m.tree[n], i) {
			m.tree[n], i = i, m.tree[n]
		}
	}
	m.tree[0] = i
	return nil
}

// close closes every run's reader and drops the merge's buffers.
func (m *merger) close() {
	for i := range m.srcs {
		m.srcs[i].r.Close() // drops buffers only; it cannot fail
	}
	m.srcs = nil
}
