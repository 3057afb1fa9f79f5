package spill

import (
	"fmt"
	"io"

	"parajoin/internal/rel"
)

// Buffer is a spillable FIFO tuple buffer: the materialization primitive
// for exchange consumers, StoreAs temps, and root result collection.
// Unlike Sorter it preserves insertion order — sealed segments replay in
// seal order, then the in-memory tail.
type Buffer struct {
	spiller
	rows     tupleRun
	finished bool
}

// NewBuffer creates a buffer configured by cfg.
func NewBuffer(cfg Config) *Buffer {
	b := &Buffer{}
	b.spiller = spiller{cfg: cfg, run: &b.rows}
	return b
}

// Add appends one tuple. The buffer takes ownership.
func (b *Buffer) Add(t rel.Tuple) error { return b.add(t) }

// Finish returns the buffered tuples as a stream in insertion order. The
// buffer must not be used after Finish.
func (b *Buffer) Finish() (Stream, error) {
	if b.finished {
		return nil, fmt.Errorf("spill: %s: buffer finished twice", b.cfg.Label)
	}
	b.finished = true
	if len(b.segs) == 0 {
		return &memStream{run: b.rows}, nil
	}
	// Already on disk: seal the tail too (order preserved — it is the
	// last segment), releasing its reservation for downstream operators.
	if err := b.seal(); err != nil {
		return nil, err
	}
	srcs := make([]source, 0, len(b.segs))
	for _, seg := range b.segs {
		r, err := OpenSegment(seg)
		if err != nil {
			closeSources(srcs)
			return nil, err
		}
		srcs = append(srcs, r)
	}
	return &chainStream{srcs: srcs, total: b.total}, nil
}

// Concat chains streams back to back in argument order: Len sums, Next
// drains each stream before moving to the next, Close closes them all.
// The parallel Tributary join uses it to stitch per-sub-range buffers
// into one stream with the serial path's exact row order.
func Concat(streams ...Stream) Stream {
	if len(streams) == 1 {
		return streams[0]
	}
	c := &concatStream{streams: streams}
	for _, s := range streams {
		c.total += s.Len()
	}
	return c
}

type concatStream struct {
	streams []Stream
	cur     int
	total   int64
}

func (c *concatStream) Len() int64 { return c.total }

func (c *concatStream) Next() (rel.Tuple, error) {
	for c.cur < len(c.streams) {
		t, err := c.streams[c.cur].Next()
		if err == io.EOF {
			c.cur++
			continue
		}
		return t, err
	}
	return nil, io.EOF
}

func (c *concatStream) Close() error {
	var first error
	for _, s := range c.streams {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.streams = nil
	return first
}

// chainStream concatenates sources back to back.
type chainStream struct {
	srcs  []source
	cur   int
	total int64
}

func (c *chainStream) Len() int64 { return c.total }

func (c *chainStream) Next() (rel.Tuple, error) {
	for c.cur < len(c.srcs) {
		t, err := c.srcs[c.cur].next()
		if err == io.EOF {
			c.cur++
			continue
		}
		return t, err
	}
	return nil, io.EOF
}

func (c *chainStream) Close() error {
	var first error
	for _, s := range c.srcs {
		if err := s.close(); err != nil && first == nil {
			first = err
		}
	}
	c.srcs = nil
	return first
}
