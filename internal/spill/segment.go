package spill

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"parajoin/internal/colbatch"
	"parajoin/internal/rel"
)

// The segment format: an 8-byte magic, a little-endian uint32 arity, a
// 4-byte reserved word, then the tuples as consecutive colbatch batches of
// up to segChunkRows rows each — the same dictionary-encoded column-major
// layout the exchange transport and wire protocol use, so spilled runs get
// the same compression and share one decoder. Write order is preserved:
// batch k holds rows k·segChunkRows onward, rows in row order within each
// batch. Every batch carries colbatch's CRC. A sealed run is one segment
// stored as an extent of its run's spill file, which never outlives the
// run; partstore keeps each durable partition as one segment in a file of
// its own and adds a whole-file CRC in its manifest.
const (
	segMagic      = "PJSPILL2"
	segHeaderSize = 16
)

// segChunkRows is the batch granularity: large enough that dictionaries
// amortize, small enough that a reader materializes one modest arena at a
// time.
const segChunkRows = 4096

// encodeState is what one encode works in: the colbatch encoder's
// transpose and dictionary tables, a sealed Buffer run's row views, a
// sealed Sorter run's batch columns and the encoded bytes. Encodes borrow
// one from encodePool, so the buffers follow the seals that are running
// rather than the spillers that exist.
type encodeState struct {
	enc   colbatch.Encoder
	views []rel.Tuple
	cols  [][]int64
	vals  []int64 // backs cols
	buf   []byte
}

var encodePool = sync.Pool{New: func() any { return new(encodeState) }}

// AppendSegment appends rows, all of the given arity, to dst as one
// segment and returns the extended slice. It and appendPacked are the
// format's encoders: partstore's partitions and sealed Buffer runs come
// from AppendSegment, sealed Sorter runs from appendPacked.
func AppendSegment(dst []byte, arity int, rows []rel.Tuple) ([]byte, error) {
	st := encodePool.Get().(*encodeState)
	defer encodePool.Put(st)
	return appendSegment(dst, &st.enc, arity, rows)
}

func appendSegment(dst []byte, enc *colbatch.Encoder, arity int, rows []rel.Tuple) ([]byte, error) {
	dst, err := appendSegmentHeader(dst, arity)
	if err != nil {
		return nil, err
	}
	for len(rows) > 0 {
		n := min(len(rows), segChunkRows)
		// The encoder checks every row of a batch against its first.
		if len(rows[0]) != arity {
			return nil, fmt.Errorf("spill: writing arity-%d tuple to arity-%d segment", len(rows[0]), arity)
		}
		if dst, err = enc.AppendTuples(dst, rows[:n]); err != nil {
			return nil, fmt.Errorf("spill: encoding segment batch: %w", err)
		}
		rows = rows[n:]
	}
	return dst, nil
}

func appendSegmentHeader(dst []byte, arity int) ([]byte, error) {
	if arity <= 0 {
		return nil, fmt.Errorf("spill: segment arity must be positive, got %d", arity)
	}
	dst = append(dst, segMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(arity))
	return append(dst, 0, 0, 0, 0), nil
}

// appendPacked appends rows packed under the row layout p, p.Words()
// words each, to dst as one segment of the layout's arity. Each batch's
// columns are unpacked straight from the words, so the bytes are those
// AppendSegment writes for the same rows, without row views or a
// transpose.
func (st *encodeState) appendPacked(dst []byte, words []uint64, p *rel.KeyPacker) ([]byte, error) {
	fields := p.Fields()
	dst, err := appendSegmentHeader(dst, len(fields))
	if err != nil {
		return nil, err
	}
	w := p.Words()
	for len(words) > 0 {
		n := min(len(words)/w, segChunkRows)
		st.vals = slices.Grow(st.vals[:0], n*len(fields))[:n*len(fields)]
		st.cols = st.cols[:0]
		for j, f := range fields {
			col := st.vals[j*n : (j+1)*n]
			if w == 1 {
				for i, k := range words[:n] {
					col[i] = f.Min + int64(k>>f.Shift&f.Mask)
				}
			} else {
				for i := range col {
					col[i] = f.Min + int64(words[i*w+f.Word]>>f.Shift&f.Mask)
				}
			}
			st.cols = append(st.cols, col)
		}
		if dst, err = st.enc.AppendColumns(dst, st.cols); err != nil {
			return nil, fmt.Errorf("spill: encoding segment batch: %w", err)
		}
		words = words[n*w:]
	}
	return dst, nil
}

// SegmentReader streams a segment's tuples back in write order, one
// decoded colbatch batch per Next. Each batch costs one positioned read,
// which also fetches the next batch's header, into a buffer the reader
// reuses. It is a Stream.
type SegmentReader struct {
	src    *io.SectionReader
	arity  int
	tuples int64

	// buf[:next] is the next batch's header, read with the previous batch
	// (next is 0 after the last batch); off is where its payload starts.
	buf  []byte
	next int
	off  int64
}

// NewSegmentReader reads the segment that fills src — an extent of a run
// file or a whole partition file — and validates its header. arity 0
// takes the header's arity; any other value must match it. The reader's
// Len is tuples.
func NewSegmentReader(src *io.SectionReader, arity int, tuples int64) (*SegmentReader, error) {
	r := &SegmentReader{src: src, tuples: tuples}
	r.buf = make([]byte, min(src.Size(), segHeaderSize+colbatch.HeaderSize))
	if err := r.readAt(r.buf, 0); err != nil {
		return nil, fmt.Errorf("spill: reading segment header: %w", err)
	}
	if len(r.buf) < segHeaderSize || string(r.buf[:8]) != segMagic {
		return nil, fmt.Errorf("spill: not a segment")
	}
	r.arity = int(binary.LittleEndian.Uint32(r.buf[8:]))
	if arity != 0 && r.arity != arity {
		return nil, fmt.Errorf("spill: segment has arity %d, expected %d", r.arity, arity)
	}
	r.next = copy(r.buf, r.buf[segHeaderSize:])
	r.off = int64(len(r.buf))
	return r, nil
}

// readAt fills p from src at off; a short read is an error.
func (r *SegmentReader) readAt(p []byte, off int64) error {
	n, err := r.src.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// loadBatch reads the next colbatch batch and decodes it into b, which it
// returns, or returns io.EOF after the last. With b nil the batch is a
// fresh one, as Next needs: its values are Next's caller's. A caller that
// keeps no row past its batch passes the same b every time, so its arena
// is reused; it must not mix that with Next.
func (r *SegmentReader) loadBatch(b *colbatch.Batch) (*colbatch.Batch, error) {
	const h = colbatch.HeaderSize
	switch {
	case r.next == 0:
		return nil, io.EOF
	case r.next < h:
		return nil, fmt.Errorf("spill: segment ends inside a batch header")
	}
	plen := int64(binary.LittleEndian.Uint32(r.buf[12:]))
	rest := r.src.Size() - r.off
	if plen > colbatch.MaxPayload || plen > rest {
		return nil, fmt.Errorf("spill: segment batch payload of %d bytes overruns the segment", plen)
	}
	// One read: this batch's payload and, unless it is the last, the next
	// batch's header.
	total := h + plen
	end := total + min(rest-plen, h)
	r.buf = slices.Grow(r.buf[:h], int(end)-h)[:end] // amortized: batch sizes vary
	if err := r.readAt(r.buf[h:], r.off); err != nil {
		return nil, fmt.Errorf("spill: reading segment: %w", err)
	}
	if b == nil {
		b = new(colbatch.Batch)
	}
	if err := colbatch.DecodeInto(b, r.buf[:total]); err != nil {
		return nil, fmt.Errorf("spill: decoding segment: %w", err)
	}
	if b.Rows() > 0 && b.Cols() != r.arity {
		return nil, fmt.Errorf("spill: segment batch arity %d, expected %d", b.Cols(), r.arity)
	}
	counters.bytesRead.Add(total)
	r.next = copy(r.buf, r.buf[total:])
	r.off += end - h
	return b, nil
}

// Next returns the next batch the segment holds, decoded into values of
// its own, or io.EOF after the last one.
func (r *SegmentReader) Next() (rel.Batch, error) {
	b, err := r.loadBatch(nil)
	if err != nil {
		return rel.Batch{}, err
	}
	return rel.BatchOf(r.arity, b.Rows(), b.Values()), nil
}

// Len returns the segment's tuple count.
func (r *SegmentReader) Len() int64 { return r.tuples }

// Close drops the reader's buffers. The segment's file belongs to its
// owner (the run's Dir, or partstore), which closes it.
func (r *SegmentReader) Close() error {
	r.buf, r.next = nil, 0
	return nil
}
