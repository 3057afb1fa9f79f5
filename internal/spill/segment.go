package spill

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"parajoin/internal/colbatch"
	"parajoin/internal/rel"
)

// The segment format: an 8-byte magic, a little-endian uint32 arity, a
// 4-byte reserved word, then the tuples as consecutive colbatch batches of
// up to segChunkRows rows each — the same dictionary-encoded column-major
// layout the exchange transport and wire protocol use, so spilled runs get
// the same compression and share one decoder. Write order is preserved:
// batch k holds rows k·segChunkRows onward, rows in row order within each
// batch. Every batch carries colbatch's CRC. A spill segment is a private
// temp file that never outlives its run; partstore keeps its durable
// partitions in the same format and adds a whole-file CRC in its manifest.
const (
	segMagic      = "PJSPILL2"
	segHeaderSize = 16
)

// segChunkRows is the batch granularity: large enough that dictionaries
// amortize, small enough that a reader materializes one modest arena at a
// time.
const segChunkRows = 4096

// segBufSize is the buffered-I/O granularity for segment reads and writes.
const segBufSize = 64 << 10

// Segment describes one sealed run on disk.
type Segment struct {
	Path   string
	Arity  int
	Tuples int64
	Bytes  int64 // file size, header included
}

// SegmentWriter streams tuples of a fixed arity into a segment file.
type SegmentWriter struct {
	f      *os.File
	bw     *bufio.Writer
	arity  int
	tuples int64
	bytes  int64 // encoded batch bytes written so far

	enc     colbatch.Encoder
	vals    []int64   // pending rows, flat
	rows    [][]int64 // slices into vals, rebuilt per flush
	pending int       // rows buffered in vals
	scratch []byte    // encode buffer, reused across flushes
}

// NewSegmentWriter wraps f (fresh and empty, normally from Dir.Create)
// and writes the segment header.
func NewSegmentWriter(f *os.File, arity int) (*SegmentWriter, error) {
	if arity <= 0 {
		return nil, fmt.Errorf("spill: segment arity must be positive, got %d", arity)
	}
	w := &SegmentWriter{f: f, bw: bufio.NewWriterSize(f, segBufSize), arity: arity}
	var hdr [segHeaderSize]byte
	copy(hdr[:], segMagic)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(arity))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return w, nil
}

// Write appends one tuple. The tuple is copied; the caller keeps
// ownership.
func (w *SegmentWriter) Write(t rel.Tuple) error {
	if len(t) != w.arity {
		return fmt.Errorf("spill: writing arity-%d tuple to arity-%d segment", len(t), w.arity)
	}
	w.vals = append(w.vals, t...)
	w.pending++
	if w.pending >= segChunkRows {
		return w.flush()
	}
	return nil
}

// flush encodes the pending rows as one colbatch batch and writes it.
func (w *SegmentWriter) flush() error {
	if w.pending == 0 {
		return nil
	}
	w.rows = w.rows[:0]
	for i := 0; i < w.pending; i++ {
		w.rows = append(w.rows, w.vals[i*w.arity:(i+1)*w.arity])
	}
	data, err := w.enc.AppendRows(w.scratch[:0], w.rows)
	if err != nil {
		return fmt.Errorf("spill: encoding segment batch: %w", err)
	}
	w.scratch = data
	if _, err := w.bw.Write(data); err != nil {
		return err
	}
	w.tuples += int64(w.pending)
	w.bytes += int64(len(data))
	w.vals = w.vals[:0]
	w.pending = 0
	return nil
}

// Finish flushes and closes the file, returning the segment descriptor.
func (w *SegmentWriter) Finish() (*Segment, error) {
	if err := w.flush(); err != nil {
		w.f.Close()
		return nil, err
	}
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return nil, err
	}
	if err := w.f.Close(); err != nil {
		return nil, err
	}
	seg := &Segment{
		Path:   w.f.Name(),
		Arity:  w.arity,
		Tuples: w.tuples,
		Bytes:  segHeaderSize + w.bytes,
	}
	counters.segments.Add(1)
	counters.bytesWritten.Add(seg.Bytes)
	return seg, nil
}

// SegmentReader streams a segment's tuples back in write order, decoding
// one colbatch batch at a time. It is a Stream.
type SegmentReader struct {
	f      *os.File
	br     *bufio.Reader
	arity  int
	tuples int64

	cur     []rel.Tuple // materialized rows of the current batch
	pos     int
	scratch []byte // batch read buffer, reused
}

// OpenSegment opens seg for reading and validates its header. The
// reader's Len is seg.Tuples.
func OpenSegment(seg *Segment) (*SegmentReader, error) {
	f, err := os.Open(seg.Path)
	if err != nil {
		return nil, err
	}
	r := &SegmentReader{f: f, br: bufio.NewReaderSize(f, segBufSize), tuples: seg.Tuples}
	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("spill: reading segment header of %s: %w", seg.Path, err)
	}
	if string(hdr[:8]) != segMagic {
		f.Close()
		return nil, fmt.Errorf("spill: %s is not a segment file", seg.Path)
	}
	r.arity = int(binary.LittleEndian.Uint32(hdr[8:]))
	if seg.Arity != 0 && r.arity != seg.Arity {
		f.Close()
		return nil, fmt.Errorf("spill: segment %s has arity %d, expected %d", seg.Path, r.arity, seg.Arity)
	}
	return r, nil
}

// loadBatch reads and decodes the next colbatch batch from the file.
func (r *SegmentReader) loadBatch() error {
	hdr := r.scratch
	if cap(hdr) < colbatch.HeaderSize {
		hdr = make([]byte, colbatch.HeaderSize)
	}
	hdr = hdr[:colbatch.HeaderSize]
	if _, err := io.ReadFull(r.br, hdr); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("spill: reading segment %s: %w", r.f.Name(), err)
	}
	plen := int(binary.LittleEndian.Uint32(hdr[12:]))
	if plen > colbatch.MaxPayload {
		return fmt.Errorf("spill: segment %s: batch payload of %d bytes exceeds limit", r.f.Name(), plen)
	}
	total := colbatch.HeaderSize + plen
	if cap(hdr) < total {
		grown := make([]byte, total)
		copy(grown, hdr)
		hdr = grown
	}
	hdr = hdr[:total]
	if _, err := io.ReadFull(r.br, hdr[colbatch.HeaderSize:]); err != nil {
		return fmt.Errorf("spill: reading segment %s: %w", r.f.Name(), err)
	}
	r.scratch = hdr
	b, err := colbatch.Decode(hdr)
	if err != nil {
		return fmt.Errorf("spill: decoding segment %s: %w", r.f.Name(), err)
	}
	if b.Rows() > 0 && b.Cols() != r.arity {
		return fmt.Errorf("spill: segment %s: batch arity %d, expected %d", r.f.Name(), b.Cols(), r.arity)
	}
	counters.bytesRead.Add(int64(total))
	r.cur = b.Tuples()
	r.pos = 0
	return nil
}

// Next returns the next tuple, or io.EOF after the last one. Returned
// tuples share a per-batch arena with capacity clamps: appending to one
// allocates instead of clobbering its neighbor, but callers must not write
// through existing indexes.
func (r *SegmentReader) Next() (rel.Tuple, error) {
	for r.pos >= len(r.cur) {
		if err := r.loadBatch(); err != nil {
			return nil, err
		}
	}
	t := r.cur[r.pos]
	r.pos++
	return t, nil
}

// Len returns the segment's tuple count.
func (r *SegmentReader) Len() int64 { return r.tuples }

// Close closes the underlying file.
func (r *SegmentReader) Close() error { return r.f.Close() }
