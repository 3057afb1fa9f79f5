package colbatch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"testing"

	"parajoin/internal/rel"
)

// seedBatches seed FuzzDecodeBatch's corpus, in order, and are among the
// batches TestEncoderMatchesMapReference holds to the map reference.
var seedBatches = [][]rel.Tuple{
	nil,
	{{0}},
	{{1, -1}, {1, -1}, {1, -1}},
	{{5, 1 << 40}, {5, -(1 << 40)}, {6, 0}},
	dictSeed(),
}

func dictSeed() []rel.Tuple {
	rows := make([]rel.Tuple, 64)
	for i := range rows {
		rows[i] = rel.Tuple{int64(i % 3), int64(i), 42}
	}
	return rows
}

// FuzzDecodeBatch fuzzes the batch decoder two ways. First it feeds the raw
// input to Decode, which mostly exercises the header validation (a random
// mutation rarely survives the CRC). Then it strips any recognizable header
// and re-wraps the remainder as a payload under a freshly computed valid
// header, so the column decoders — varint bounds, dictionary indexes,
// encoding bytes — see the mutated bytes directly. Anything that decodes must
// re-encode and decode to the same rows.
func FuzzDecodeBatch(f *testing.F) {
	var e Encoder
	for _, rows := range seedBatches {
		data, err := e.AppendTuples(nil, rows)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(Magic))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		if b := decodeBothWays(t, data); b != nil {
			checkStable(t, b)
		}
		// Re-wrap: treat the bytes after the header (or the whole input) as a
		// payload and give it a consistent header so decodeColumn runs.
		payload := data
		if len(payload) >= HeaderSize {
			payload = payload[HeaderSize:]
		}
		if len(payload) > MaxPayload {
			return
		}
		for _, shape := range [][2]uint32{{0, 0}, {1, 1}, {3, 2}, {1 << 10, 4}} {
			hdr := make([]byte, HeaderSize, HeaderSize+len(payload))
			copy(hdr, Magic)
			hdr[4] = Version
			binary.LittleEndian.PutUint16(hdr[6:], uint16(shape[1]))
			binary.LittleEndian.PutUint32(hdr[8:], shape[0])
			binary.LittleEndian.PutUint32(hdr[12:], uint32(len(payload)))
			binary.LittleEndian.PutUint32(hdr[16:], crc32.ChecksumIEEE(payload))
			if b := decodeBothWays(t, append(hdr, payload...)); b != nil {
				checkStable(t, b)
			}
		}
	})
}

// checkStable re-encodes an accepted batch and verifies the round trip is
// value-identical.
// decodeBothWays decodes data with Decode and with DecodeInto over a batch
// that already holds other rows, requires the two to agree, and returns
// Decode's batch, or nil if data does not decode.
func decodeBothWays(t *testing.T, data []byte) *Batch {
	t.Helper()
	b, err := Decode(data)
	var e Encoder
	held, herr := e.AppendTuples(nil, dictSeed())
	reused := new(Batch)
	if herr == nil {
		herr = DecodeInto(reused, held)
	}
	if herr != nil {
		t.Fatal(herr)
	}
	rerr := DecodeInto(reused, data)
	if (err == nil) != (rerr == nil) {
		t.Fatalf("Decode error %v, DecodeInto error %v", err, rerr)
	}
	if err != nil {
		if reused.Rows() != 0 || reused.Cols() != 0 {
			t.Fatalf("a failed DecodeInto left a %dx%d batch", reused.Rows(), reused.Cols())
		}
		return nil
	}
	if reused.Rows() != b.Rows() || reused.Cols() != b.Cols() || !slices.Equal(reused.Values(), b.Values()) {
		t.Fatalf("DecodeInto gave a %dx%d batch %v, Decode %dx%d %v",
			reused.Rows(), reused.Cols(), reused.Values(), b.Rows(), b.Cols(), b.Values())
	}
	return b
}

// checkStable re-encodes an accepted batch, from its rows and, when it has
// columns, from its columns with AppendColumns, which must give the same
// bytes; the re-encoded batch must decode to the same rows.
func checkStable(t *testing.T, b *Batch) {
	t.Helper()
	rows := b.Tuples()
	var e Encoder
	data, err := e.AppendTuples(nil, rows)
	if err != nil {
		t.Fatalf("re-encode of accepted batch failed: %v", err)
	}
	// The batch as the TCP receiver queues it: its values, arity and rows.
	flat := rel.BatchOf(b.Cols(), b.Rows(), b.Values())
	if byBatch, err := e.AppendBatch(nil, flat); err != nil || !bytes.Equal(byBatch, data) {
		t.Fatalf("AppendBatch: %v, %x; AppendTuples %x", err, byBatch, data)
	}
	if b.Cols() > 0 {
		cols := make([][]int64, b.Cols())
		for j := range cols {
			for _, r := range rows {
				cols[j] = append(cols[j], r[j])
			}
		}
		byCols, err := e.AppendColumns(nil, cols)
		if err != nil || !bytes.Equal(byCols, data) {
			t.Fatalf("AppendColumns: %v, %x; AppendTuples %x", err, byCols, data)
		}
	}
	again, err := Decode(data)
	if err != nil {
		t.Fatalf("re-decode failed: %v", err)
	}
	if again.Rows() != b.Rows() || again.Cols() != b.Cols() {
		t.Fatalf("shape drift: %dx%d -> %dx%d", b.Rows(), b.Cols(), again.Rows(), again.Cols())
	}
	got := again.Tuples()
	for i, want := range rows {
		if !got[i].Equal(want) {
			t.Fatalf("row %d drift: %v -> %v", i, want, got[i])
		}
	}
}

// FuzzDecodeRowsStream holds DecodeRowsStream to refDecodeStream, the
// column-major decoder the row-major one replaced: any input either fails
// in both or decodes to the same rows in both. It also bounds what a
// decode allocates by the input length plus the values of the batches
// whose checksums verified, so a header claiming a huge row count cannot
// reserve memory for rows that never arrive.
func FuzzDecodeRowsStream(f *testing.F) {
	var e Encoder
	var stream []byte
	for _, rows := range seedBatches {
		data, err := e.AppendTuples(nil, rows)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		if len(rows) > 0 && len(rows[0]) == 2 {
			stream = append(stream, data...) // batches of one arity
		}
	}
	f.Add(stream)
	f.Add(hostileHeader(MaxRows, 1))
	f.Add(append(hostileHeader(0, 0), hostileHeader(MaxRows, 0)...))
	f.Add([]byte(Magic))

	f.Fuzz(func(t *testing.T, data []byte) {
		want, verifiedRows, verifiedValues, wantErr := refDecodeStream(data)
		if errors.Is(wantErr, errHugeClaim) {
			return
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		got, err := DecodeRowsStream(data)
		runtime.ReadMemStats(&ms)
		bound := 64*uint64(len(data)) + 96*uint64(verifiedRows) + 8*uint64(verifiedValues) + 64<<10
		if alloc := ms.TotalAlloc - before; alloc > bound {
			t.Fatalf("decoding %d bytes (%d verified rows) allocated %d bytes, bound %d", len(data), verifiedRows, alloc, bound)
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodeRowsStream error %v, reference error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("decoded %d rows, reference %d", len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("row %d: %v, reference %v", i, got[i], want[i])
			}
		}
	})
}

// hostileHeader is a batch header claiming rows × cols with an empty
// payload whose checksum does not match.
func hostileHeader(rows uint32, cols uint16) []byte {
	hdr := make([]byte, HeaderSize)
	copy(hdr, Magic)
	hdr[4] = Version
	binary.LittleEndian.PutUint16(hdr[6:], cols)
	binary.LittleEndian.PutUint32(hdr[8:], rows)
	binary.LittleEndian.PutUint32(hdr[16:], 1)
	return hdr
}

// errHugeClaim stops refDecodeStream at checksummed batches claiming more
// than maxFuzzValues values or rows in all. Constant and zero-width
// columns legitimately decode a few payload bytes into MaxRows rows, and
// the checksum covers only the payload, so the fuzzer can reach claims of
// gigabytes; FuzzDecodeRowsStream skips those inputs instead of running
// out of memory on them.
var errHugeClaim = errors.New("checksummed batches claim too many values to fuzz")

const maxFuzzValues = 1 << 22

// refDecodeStream is the column-major stream decoder DecodeRowsStream
// replaced: each batch is decoded into per-column vectors, then transposed
// into rows. verifiedRows and verifiedValues sum the shapes of the batches
// whose header and checksum passed, the batches a decoder may allocate for.
func refDecodeStream(data []byte) (rows [][]int64, verifiedRows, verifiedValues int, err error) {
	for len(data) > 0 {
		if len(data) < HeaderSize || string(data[:4]) != Magic || data[4] != Version || data[5] != 0 {
			return nil, verifiedRows, verifiedValues, fmt.Errorf("bad header")
		}
		ncols := int(binary.LittleEndian.Uint16(data[6:]))
		nrows := int(binary.LittleEndian.Uint32(data[8:]))
		plen := int(binary.LittleEndian.Uint32(data[12:]))
		if ncols > MaxCols || nrows > MaxRows || plen > MaxPayload || ncols > plen || len(data) < HeaderSize+plen {
			return nil, verifiedRows, verifiedValues, fmt.Errorf("bad limits")
		}
		payload := data[HeaderSize : HeaderSize+plen]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[16:]) {
			return nil, verifiedRows, verifiedValues, fmt.Errorf("bad checksum")
		}
		verifiedRows += nrows
		verifiedValues += nrows * ncols
		if verifiedRows > maxFuzzValues || verifiedValues > maxFuzzValues {
			return nil, verifiedRows, verifiedValues, errHugeClaim
		}
		cols := make([][]int64, ncols)
		for j := range cols {
			cols[j] = make([]int64, nrows)
			n, err := refDecodeColumn(cols[j], payload)
			if err != nil {
				return nil, verifiedRows, verifiedValues, err
			}
			payload = payload[n:]
		}
		if len(payload) != 0 {
			return nil, verifiedRows, verifiedValues, fmt.Errorf("undecoded payload")
		}
		for i := 0; i < nrows; i++ {
			row := make([]int64, ncols)
			for j, col := range cols {
				row[j] = col[i]
			}
			rows = append(rows, row)
		}
		data = data[HeaderSize+plen:]
	}
	return rows, verifiedRows, verifiedValues, nil
}

// refDecodeColumn decodes one column block into col and returns the bytes
// it consumed.
func refDecodeColumn(col []int64, payload []byte) (int, error) {
	if len(payload) == 0 {
		return 0, fmt.Errorf("missing encoding byte")
	}
	p, used := payload[1:], 1
	next := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, fmt.Errorf("bad varint")
		}
		p, used = p[n:], used+n
		return v, nil
	}
	zz := func(u uint64) int64 {
		v := int64(u >> 1)
		if u&1 != 0 {
			v = ^v
		}
		return v
	}
	switch payload[0] {
	case encConst:
		u, err := next()
		if err != nil || len(col) == 0 {
			return 0, fmt.Errorf("bad const column")
		}
		for i := range col {
			col[i] = zz(u)
		}
	case encRaw:
		for i := range col {
			u, err := next()
			if err != nil {
				return 0, err
			}
			col[i] = zz(u)
		}
	case encDict:
		d, err := next()
		if err != nil || d == 0 || d > uint64(len(col)) || d > maxDict {
			return 0, fmt.Errorf("bad dictionary size")
		}
		dict := make([]int64, d)
		for i := range dict {
			u, err := next()
			if err != nil {
				return 0, err
			}
			dict[i] = zz(u)
		}
		for i := range col {
			k, err := next()
			if err != nil || k >= d {
				return 0, fmt.Errorf("bad dictionary index")
			}
			col[i] = dict[k]
		}
	default:
		return 0, fmt.Errorf("unknown encoding")
	}
	return used, nil
}
