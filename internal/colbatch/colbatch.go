package colbatch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"

	"parajoin/internal/rel"
)

// Format constants. The header is validated in full before any
// payload-proportional allocation happens, and the checksum before any
// column is decoded.
const (
	// Magic opens every batch.
	Magic = "PJCB"
	// Version is the format revision this package reads and writes.
	Version = 1
	// HeaderSize is the fixed batch header length in bytes.
	HeaderSize = 20
	// MaxRows caps the rows of a single batch. Larger row sets travel as a
	// stream of batches (AppendRowsStream), which bounds how much a decoder
	// allocates before each chunk's checksum has been verified.
	MaxRows = 1 << 20
	// MaxCols caps a batch's column count.
	MaxCols = 1 << 14
	// MaxPayload caps a batch's payload length.
	MaxPayload = 1 << 30
	// maxDict is the largest per-column dictionary the encoder builds; a
	// column with more distinct values falls back to raw varints.
	maxDict = 4096
)

// Column encodings.
const (
	encConst byte = 0 // one varint, repeated for every row
	encRaw   byte = 1 // rows zigzag varints in row order
	encDict  byte = 2 // uvarint count, dictionary varints, row indexes
)

// ErrChecksum is the error, wrapped with both checksums, of a batch whose
// payload does not match its header's CRC: a corrupted or truncated copy.
var ErrChecksum = errors.New("colbatch: checksum mismatch")

// zigzagLen is the encoded length of v as a zigzag varint.
func zigzagLen(v int64) int {
	return uvarintLen(uint64(v<<1) ^ uint64(v>>63))
}

func uvarintLen(u uint64) int {
	return (bits.Len64(u|1) + 6) / 7
}

// Encoder turns row batches into encoded columnar batches. The zero value
// is ready to use; an Encoder amortizes its transpose and dictionary
// scratch across calls and is not safe for concurrent use.
type Encoder struct {
	cols     [][]int64
	colArena []int64
	dict     dictTable
	dictVals []int64
	idx      []uint32
}

// dictTable maps a column's values to their dictionary indexes: open
// addressing with linear probing over at least twice as many slots as the
// column's dictionary may hold, so it is never more than half full. A slot
// is live only when stamped with the current generation, so starting the
// next column is one increment, not a sweep of the table.
type dictTable struct {
	slots []dictSlot // power-of-two length
	shift uint       // 64 - log2(len(slots))
	gen   uint32
}

type dictSlot struct {
	val int64
	idx uint32
	gen uint32
}

// reset empties the table for a column whose dictionary holds at most
// limit values.
func (t *dictTable) reset(limit int) {
	if len(t.slots) < 2*limit {
		n := 1 << bits.Len(uint(2*limit-1))
		t.slots = make([]dictSlot, n)
		t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	}
	t.gen++
	if t.gen == 0 {
		// Wrapped: a slot stamped 2^32 columns ago would read as live.
		clear(t.slots)
		t.gen = 1
	}
}

// find returns the slot holding v, or the empty slot v belongs in (one
// whose gen is stale).
func (t *dictTable) find(v int64) *dictSlot {
	mask := uint64(len(t.slots) - 1)
	h := (uint64(v) * 0x9e3779b97f4a7c15) >> t.shift
	for {
		s := &t.slots[h]
		if s.gen != t.gen || s.val == v {
			return s
		}
		h = (h + 1) & mask
	}
}

// AppendTuples appends the encoded form of rows (all of one arity) to dst
// and returns the extended slice.
func (e *Encoder) AppendTuples(dst []byte, rows []rel.Tuple) ([]byte, error) {
	return appendRows(e, dst, rows)
}

// AppendRows is AppendTuples for plain [][]int64 rows (the wire layer's row
// representation).
func (e *Encoder) AppendRows(dst []byte, rows [][]int64) ([]byte, error) {
	return appendRows(e, dst, rows)
}

// AppendBatch appends the encoded form of b's rows to dst: the bytes
// AppendTuples writes for the same rows.
func (e *Encoder) AppendBatch(dst []byte, b rel.Batch) ([]byte, error) {
	return e.appendRowsOf(dst, b.Len(), b.Arity, func(i int) []int64 { return b.Row(i) })
}

func appendRows[R ~[]int64](e *Encoder, dst []byte, rows []R) ([]byte, error) {
	ncols := 0
	if len(rows) > 0 {
		ncols = len(rows[0])
	}
	return e.appendRowsOf(dst, len(rows), ncols, func(i int) []int64 { return rows[i] })
}

// AppendColumns appends the batch whose columns are cols, each holding
// one value per row, to dst and returns the extended slice: the bytes
// AppendTuples writes for the same rows, without the transpose. The
// encoder only reads cols.
func (e *Encoder) AppendColumns(dst []byte, cols [][]int64) ([]byte, error) {
	nrows := 0
	if len(cols) > 0 {
		nrows = len(cols[0])
	}
	if err := checkShape(nrows, len(cols)); err != nil {
		return nil, err
	}
	for j, c := range cols {
		if len(c) != nrows {
			return nil, fmt.Errorf("colbatch: column %d has %d rows, batch has %d", j, len(c), nrows)
		}
	}
	return e.appendBatch(dst, cols, nrows)
}

// checkShape refuses a batch over the row or column limit.
func checkShape(nrows, ncols int) error {
	if nrows > MaxRows {
		return fmt.Errorf("colbatch: batch of %d rows exceeds limit %d", nrows, MaxRows)
	}
	if ncols > MaxCols {
		return fmt.Errorf("colbatch: batch of %d columns exceeds limit %d", ncols, MaxCols)
	}
	return nil
}

// appendRowsOf encodes the batch of nrows rows of ncols values, row i
// being row(i), after dst: transposed into e.cols, then appendBatch.
func (e *Encoder) appendRowsOf(dst []byte, nrows, ncols int, row func(int) []int64) ([]byte, error) {
	if err := checkShape(nrows, ncols); err != nil {
		return nil, err
	}
	if cap(e.colArena) < nrows*ncols {
		e.colArena = make([]int64, nrows*ncols)
	}
	if cap(e.cols) < ncols {
		e.cols = make([][]int64, ncols)
	}
	e.cols = e.cols[:ncols]
	for j := range e.cols {
		e.cols[j] = e.colArena[j*nrows : (j+1)*nrows]
	}
	for i := 0; i < nrows; i++ {
		r := row(i)
		if len(r) != ncols {
			return nil, fmt.Errorf("colbatch: row %d has arity %d, batch has %d", i, len(r), ncols)
		}
		for j, v := range r {
			e.cols[j][i] = v
		}
	}
	return e.appendBatch(dst, e.cols, nrows)
}

// appendBatch encodes cols (nrows values each) after dst.
func (e *Encoder) appendBatch(dst []byte, cols [][]int64, nrows int) ([]byte, error) {
	start := len(dst)
	ncols := len(cols)
	dst = append(dst, make([]byte, HeaderSize)...)
	payloadStart := len(dst)
	for _, c := range cols {
		dst = e.appendColumn(dst, c)
	}
	payload := dst[payloadStart:]
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("colbatch: payload of %d bytes exceeds limit %d", len(payload), MaxPayload)
	}
	hdr := dst[start:payloadStart]
	copy(hdr, Magic)
	hdr[4] = Version
	hdr[5] = 0
	binary.LittleEndian.PutUint16(hdr[6:], uint16(ncols))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(nrows))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[16:], crc32.ChecksumIEEE(payload))
	counters.batchesEncoded.Add(1)
	counters.bytesEncoded.Add(int64(len(dst) - start))
	counters.bytesRaw.Add(8 * int64(nrows) * int64(ncols))
	return dst, nil
}

// appendColumn picks the smallest of the three encodings for col and
// appends it.
func (e *Encoder) appendColumn(dst []byte, col []int64) []byte {
	if len(col) == 0 {
		return append(dst, encRaw)
	}
	// One scan sizes the raw encoding; a second builds the dictionary
	// (first-appearance order, abandoned past maxDict or half the rows —
	// beyond that raw can't lose by much) and sizes the dict encoding.
	dictLimit := maxDict
	if half := len(col) / 2; half < dictLimit {
		dictLimit = half + 1
	}
	e.dict.reset(dictLimit)
	e.dictVals = e.dictVals[:0]
	if cap(e.idx) < len(col) {
		e.idx = make([]uint32, len(col))
	}
	e.idx = e.idx[:len(col)]
	rawSize, idxSize, dictOK := 0, 0, true
	for _, v := range col {
		rawSize += zigzagLen(v)
	}
	for i, v := range col {
		s := e.dict.find(v)
		if s.gen != e.dict.gen {
			if len(e.dictVals) == dictLimit {
				dictOK = false
				break
			}
			*s = dictSlot{val: v, idx: uint32(len(e.dictVals)), gen: e.dict.gen}
			e.dictVals = append(e.dictVals, v)
		}
		e.idx[i] = s.idx
		idxSize += uvarintLen(uint64(s.idx))
	}
	if dictOK && len(e.dictVals) == 1 {
		counters.valuesConst.Add(int64(len(col)))
		dst = append(dst, encConst)
		return binary.AppendVarint(dst, col[0])
	}
	if dictOK {
		dictSize := uvarintLen(uint64(len(e.dictVals))) + idxSize
		for _, v := range e.dictVals {
			dictSize += zigzagLen(v)
		}
		if dictSize < rawSize {
			counters.valuesDict.Add(int64(len(col)))
			dst = slices.Grow(dst, 1+dictSize)
			dst = append(dst, encDict)
			dst = binary.AppendUvarint(dst, uint64(len(e.dictVals)))
			for _, v := range e.dictVals {
				dst = binary.AppendVarint(dst, v)
			}
			for _, k := range e.idx {
				dst = binary.AppendUvarint(dst, uint64(k))
			}
			return dst
		}
	}
	counters.valuesRaw.Add(int64(len(col)))
	dst = slices.Grow(dst, 1+rawSize)
	dst = append(dst, encRaw)
	for _, v := range col {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

// Batch is one decoded batch, held row-major: row i is
// arena[i*cols : (i+1)*cols].
type Batch struct {
	arena      []int64
	dict       []int64 // dictionary scratch, reused by DecodeInto
	rows, cols int
}

// Values returns the batch's values row-major: row i is
// Values()[i*Cols() : (i+1)*Cols()].
func (b *Batch) Values() []int64 { return b.arena[:b.rows*b.cols] }

// Rows returns the batch's row count.
func (b *Batch) Rows() int { return b.rows }

// Cols returns the batch's column count.
func (b *Batch) Cols() int { return b.cols }

// Tuples returns the batch's rows as tuples: views of the batch's arena,
// one allocation for the tuple headers and none per row. Every call views
// the same values, so a caller that mutates a row in place changes it for
// every other view too.
func (b *Batch) Tuples() []rel.Tuple {
	return appendViews(b, make([]rel.Tuple, 0, b.rows))
}

// AppendTuples appends the batch's rows, as Tuples returns them, to dst.
func (b *Batch) AppendTuples(dst []rel.Tuple) []rel.Tuple { return appendViews(b, dst) }

// AppendRows is AppendTuples for plain [][]int64 rows.
func (b *Batch) AppendRows(dst [][]int64) [][]int64 { return appendViews(b, dst) }

// appendViews appends one view of the arena per row to dst, each with its
// capacity clamped so that appending to it can never bleed into the next.
func appendViews[R ~[]int64](b *Batch, dst []R) []R {
	dst = slices.Grow(dst, b.rows)
	for i := 0; i < b.rows; i++ {
		dst = append(dst, b.arena[i*b.cols:(i+1)*b.cols:(i+1)*b.cols])
	}
	return dst
}

// Decode decodes data, which must hold exactly one batch.
func Decode(data []byte) (*Batch, error) {
	b := new(Batch)
	if err := DecodeInto(b, data); err != nil {
		return nil, err
	}
	return b, nil
}

// DecodeInto is Decode into b: it reuses b's value arena and dictionary
// scratch, growing them only for a batch larger than any b has held, so
// the values of b's previous batch, and every view of them, are
// overwritten. After an error b holds no rows.
func DecodeInto(b *Batch, data []byte) error {
	n, err := b.decode(data)
	if err == nil && n != len(data) {
		err = fmt.Errorf("colbatch: %d trailing bytes after batch", len(data)-n)
	}
	if err != nil {
		b.rows, b.cols = 0, 0
	}
	return err
}

// DecodeNext decodes the batch at the head of data and returns it with the
// number of bytes it occupied — the stream-reading form.
func DecodeNext(data []byte) (*Batch, int, error) {
	b := new(Batch)
	n, err := b.decode(data)
	if err != nil {
		return nil, 0, err
	}
	return b, n, nil
}

// decode decodes the batch at the head of data into b and returns the
// number of bytes it occupied. Every limit and the checksum are verified
// before the value arena is allocated; each column is then decoded
// straight into its row-major slots.
func (b *Batch) decode(data []byte) (int, error) {
	if len(data) < HeaderSize {
		return 0, fmt.Errorf("colbatch: truncated header (%d of %d bytes)", len(data), HeaderSize)
	}
	if string(data[:4]) != Magic {
		return 0, fmt.Errorf("colbatch: bad magic %q", data[:4])
	}
	if data[4] != Version {
		return 0, fmt.Errorf("colbatch: unsupported version %d (want %d)", data[4], Version)
	}
	if data[5] != 0 {
		return 0, fmt.Errorf("colbatch: unknown flags %#x", data[5])
	}
	ncols := int(binary.LittleEndian.Uint16(data[6:]))
	nrows := int(binary.LittleEndian.Uint32(data[8:]))
	plen := int(binary.LittleEndian.Uint32(data[12:]))
	sum := binary.LittleEndian.Uint32(data[16:])
	if ncols > MaxCols {
		return 0, fmt.Errorf("colbatch: %d columns exceeds limit %d", ncols, MaxCols)
	}
	if nrows > MaxRows {
		return 0, fmt.Errorf("colbatch: %d rows exceeds limit %d", nrows, MaxRows)
	}
	if plen > MaxPayload {
		return 0, fmt.Errorf("colbatch: payload of %d bytes exceeds limit %d", plen, MaxPayload)
	}
	if ncols > plen {
		// Every column block holds at least its encoding byte. The checksum
		// covers only the payload, so without this a header's column count
		// could claim an arena of MaxRows×MaxCols values.
		return 0, fmt.Errorf("colbatch: %d columns in a %d-byte payload", ncols, plen)
	}
	if len(data) < HeaderSize+plen {
		return 0, fmt.Errorf("colbatch: truncated payload (%d of %d bytes)", len(data)-HeaderSize, plen)
	}
	payload := data[HeaderSize : HeaderSize+plen]
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return 0, fmt.Errorf("%w: header %#x, payload %#x", ErrChecksum, sum, got)
	}
	if cap(b.arena) < nrows*ncols {
		b.arena = make([]int64, nrows*ncols)
	}
	b.arena = b.arena[:nrows*ncols]
	for j := 0; j < ncols; j++ {
		n, err := decodeColumn(b.arena, j, ncols, nrows, payload, &b.dict)
		if err != nil {
			return 0, fmt.Errorf("colbatch: column %d: %w", j, err)
		}
		payload = payload[n:]
	}
	if len(payload) != 0 {
		return 0, fmt.Errorf("colbatch: %d undecoded payload bytes", len(payload))
	}
	b.rows, b.cols = nrows, ncols
	counters.batchesDecoded.Add(1)
	counters.bytesDecoded.Add(int64(HeaderSize + plen))
	return HeaderSize + plen, nil
}

// unzigzag maps a zigzag-coded uvarint back to its int64.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// decodeColumn decodes one column block of nrows values from the head of
// payload into dst[at], dst[at+stride], dst[at+2*stride], … and returns
// the bytes consumed. A dictionary column reads its entries into *dict,
// grown as needed.
func decodeColumn(dst []int64, at, stride, nrows int, payload []byte, dict *[]int64) (int, error) {
	if len(payload) == 0 {
		return 0, fmt.Errorf("missing encoding byte")
	}
	enc := payload[0]
	p := payload[1:]
	bad := func(what string) error {
		return fmt.Errorf("bad %s at payload offset %d", what, len(payload)-len(p))
	}
	// The row loops decode one-byte varints inline; binary.Uvarint takes
	// the rest.
	switch enc {
	case encConst:
		if nrows == 0 {
			return 0, fmt.Errorf("const encoding for empty column")
		}
		u, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, bad("varint")
		}
		p = p[n:]
		v := unzigzag(u)
		for i := 0; i < nrows; i++ {
			dst[at+i*stride] = v
		}
	case encRaw:
		for i := 0; i < nrows; i++ {
			var u uint64
			var n int
			if len(p) > 0 && p[0] < 0x80 {
				u, n = uint64(p[0]), 1
			} else if u, n = binary.Uvarint(p); n <= 0 {
				return 0, bad("varint")
			}
			p = p[n:]
			dst[at+i*stride] = unzigzag(u)
		}
	case encDict:
		d, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, bad("uvarint")
		}
		p = p[n:]
		if d == 0 || d > uint64(nrows) || d > maxDict {
			return 0, fmt.Errorf("dictionary of %d entries for %d rows", d, nrows)
		}
		*dict = slices.Grow((*dict)[:0], int(d))[:d]
		entries := *dict
		for i := range entries {
			u, n := binary.Uvarint(p)
			if n <= 0 {
				return 0, bad("varint")
			}
			p = p[n:]
			entries[i] = unzigzag(u)
		}
		for i := 0; i < nrows; i++ {
			var k uint64
			var n int
			if len(p) > 0 && p[0] < 0x80 {
				k, n = uint64(p[0]), 1
			} else if k, n = binary.Uvarint(p); n <= 0 {
				return 0, bad("uvarint")
			}
			p = p[n:]
			if k >= d {
				return 0, fmt.Errorf("dictionary index %d out of %d entries", k, d)
			}
			dst[at+i*stride] = entries[k]
		}
	default:
		return 0, fmt.Errorf("unknown column encoding %d", enc)
	}
	return len(payload) - len(p), nil
}

// streamChunkRows is the per-batch row cap AppendRowsStream chunks at:
// well under MaxRows, so stream readers allocate modest arenas per chunk.
const streamChunkRows = 1 << 16

// AppendRowsStream encodes rows as one or more concatenated batches of at
// most streamChunkRows rows each and appends them to dst. An empty row set
// encodes as a single empty batch, so a stream is never zero bytes.
func AppendRowsStream(dst []byte, rows [][]int64) ([]byte, error) {
	var e Encoder
	if len(rows) == 0 {
		return e.AppendRows(dst, nil)
	}
	var err error
	for len(rows) > 0 {
		n := len(rows)
		if n > streamChunkRows {
			n = streamChunkRows
		}
		if dst, err = e.AppendRows(dst, rows[:n]); err != nil {
			return nil, err
		}
		rows = rows[n:]
	}
	return dst, nil
}

// DecodeRowsStream decodes a concatenation of batches back into rows.
func DecodeRowsStream(data []byte) ([][]int64, error) {
	var rows [][]int64
	rows = slices.Grow(rows, RowsHint(data))
	for len(data) > 0 {
		b, n, err := DecodeNext(data)
		if err != nil {
			return nil, err
		}
		data = data[n:]
		rows = b.AppendRows(rows)
	}
	return rows, nil
}

// RowsHint is the row count the batch headers in a stream claim, for
// presizing a decoder's output. It reads the headers unverified, so it
// is capped at len(data): a header claiming MaxRows rows cannot reserve
// more than a few row headers per input byte. Rows that take less than a
// byte each (constant or zero-width columns) are appended past the hint.
func RowsHint(data []byte) int {
	total, rest := 0, data
	for len(rest) >= HeaderSize && total < len(data) {
		total += int(binary.LittleEndian.Uint32(rest[8:]))
		plen := int(binary.LittleEndian.Uint32(rest[12:]))
		if plen > len(rest)-HeaderSize {
			break
		}
		rest = rest[HeaderSize+plen:]
	}
	return min(total, len(data))
}
