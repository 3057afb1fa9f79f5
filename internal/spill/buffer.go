package spill

import (
	"io"

	"parajoin/internal/rel"
)

// Buffer is a spillable FIFO tuple buffer: the materialization primitive
// for the Tributary join's output. Like Sorter it copies each added row
// into an arena it owns, but it preserves insertion order — sealed runs
// replay in seal order, then the in-memory tail.
type Buffer struct{ spiller }

// NewBuffer creates a buffer configured by cfg.
func NewBuffer(cfg Config) *Buffer { return &Buffer{newSpiller(cfg, false)} }

// Finish returns the buffered tuples as a stream in insertion order. The
// buffer must not be used after Finish.
func (b *Buffer) Finish() (Stream, error) {
	rs, err := b.finish()
	if err != nil {
		return nil, err
	}
	if rs == nil {
		return &memStream{run: b.run, left: b.run.rows}, nil
	}
	parts := make([]Stream, len(rs))
	for i, r := range rs {
		parts[i] = r
	}
	return Concat(parts...), nil
}

// Concat chains streams back to back in argument order: Len sums, Next
// drains each stream before moving to the next, Close closes them all.
// Buffer chains its sealed runs with it, and the parallel Tributary join
// stitches per-sub-range buffers into one stream with the unsplit join's
// exact row order.
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

func (c *concatStream) Next() (rel.Batch, error) {
	for c.cur < len(c.streams) {
		b, err := c.streams[c.cur].Next()
		if err == io.EOF {
			c.cur++
			continue
		}
		return b, err
	}
	return rel.Batch{}, io.EOF
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
