package colbatch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"parajoin/internal/rel"
)

func roundTrip(t *testing.T, rows []rel.Tuple) *Batch {
	t.Helper()
	var e Encoder
	data, err := e.AppendTuples(nil, rows)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	b, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if b.Rows() != len(rows) {
		t.Fatalf("rows: got %d, want %d", b.Rows(), len(rows))
	}
	got := b.Tuples()
	for i, want := range rows {
		if !got[i].Equal(want) {
			t.Fatalf("row %d: got %v, want %v", i, got[i], want)
		}
	}
	return b
}

func TestRoundTripShapes(t *testing.T) {
	cases := map[string][]rel.Tuple{
		"empty":      nil,
		"single":     {{42}},
		"constant":   {{7, -1}, {7, -1}, {7, -1}},
		"negatives":  {{-1, math.MinInt64}, {-128, math.MaxInt64}, {0, 1}},
		"wide":       {{1, 2, 3, 4, 5, 6, 7, 8}},
		"dictionary": {{100, 5}, {200, 5}, {100, 6}, {200, 5}, {100, 6}, {100, 5}},
	}
	for name, rows := range cases {
		t.Run(name, func(t *testing.T) { roundTrip(t, rows) })
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nrows := rng.Intn(200)
		ncols := 1 + rng.Intn(5)
		rows := make([]rel.Tuple, nrows)
		for i := range rows {
			rows[i] = make(rel.Tuple, ncols)
			for j := range rows[i] {
				switch rng.Intn(3) {
				case 0: // dictionary-friendly: few distinct values
					rows[i][j] = int64(rng.Intn(4))
				case 1: // small ids
					rows[i][j] = int64(rng.Intn(100000))
				default: // full-range values
					rows[i][j] = int64(rng.Uint64())
				}
			}
		}
		roundTrip(t, rows)
	}
}

// TestDictionaryCompresses pins the point of the format: a low-cardinality
// string-code column encodes far below 8 bytes/value.
func TestDictionaryCompresses(t *testing.T) {
	rows := make([]rel.Tuple, 1024)
	for i := range rows {
		rows[i] = rel.Tuple{int64(1_000_000 + i%3), int64(i % 7)}
	}
	var e Encoder
	data, err := e.AppendTuples(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	raw := 8 * len(rows) * 2
	if len(data)*4 > raw {
		t.Fatalf("dictionary batch is %d bytes; want < 1/4 of the flat %d", len(data), raw)
	}
}

// TestRowViews checks that every row view of a batch — Tuples, AppendTuples
// after existing tuples, AppendRows — reads the same row-major values.
func TestRowViews(t *testing.T) {
	rows := []rel.Tuple{{1, 10}, {2, 20}, {3, 30}}
	b := roundTrip(t, rows)
	if b.Cols() != 2 {
		t.Fatalf("cols: got %d", b.Cols())
	}
	prefix := rel.Tuple{7, 7}
	ts := b.AppendTuples([]rel.Tuple{prefix})
	rs := b.AppendRows(nil)
	if len(ts) != 1+len(rows) || !ts[0].Equal(prefix) || len(rs) != len(rows) {
		t.Fatalf("views: %v, %v", ts, rs)
	}
	for i, want := range rows {
		if !ts[1+i].Equal(want) || !rel.Tuple(rs[i]).Equal(want) || cap(rs[i]) != 2 {
			t.Fatalf("row %d: tuple %v, row %v (cap %d), want %v", i, ts[1+i], rs[i], cap(rs[i]), want)
		}
	}
}

// TestTupleArenaIsolation: appending to one materialized tuple must not
// clobber its arena neighbor (capacity clamps).
func TestTupleArenaIsolation(t *testing.T) {
	b := roundTrip(t, []rel.Tuple{{1, 2}, {3, 4}})
	ts := b.Tuples()
	_ = append(ts[0], 99)
	if ts[1][0] != 3 || ts[1][1] != 4 {
		t.Fatalf("arena bleed: row 1 became %v", ts[1])
	}
}

func TestRaggedRowsRejected(t *testing.T) {
	var e Encoder
	if _, err := e.AppendTuples(nil, []rel.Tuple{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged batch encoded without error")
	}
}

func TestEncoderReuse(t *testing.T) {
	var e Encoder
	a, err := e.AppendTuples(nil, []rel.Tuple{{1, 1}, {2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Second use with different shape must not inherit scratch state.
	data, err := e.AppendTuples(a, []rel.Tuple{{9, 8, 7}})
	if err != nil {
		t.Fatal(err)
	}
	b1, n, err := DecodeNext(data)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Decode(data[n:])
	if err != nil {
		t.Fatal(err)
	}
	if b1.Rows() != 2 || b2.Rows() != 1 || b2.Cols() != 3 {
		t.Fatalf("stream decode: %d/%d rows, %d cols", b1.Rows(), b2.Rows(), b2.Cols())
	}
	if got := b2.Tuples()[0]; !got.Equal(rel.Tuple{9, 8, 7}) {
		t.Fatalf("second batch decoded to %v", got)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	var e Encoder
	data, err := e.AppendTuples(nil, []rel.Tuple{{1, 2}, {3, 4}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, mutate func([]byte)) {
		bad := append([]byte(nil), data...)
		mutate(bad)
		if _, err := Decode(bad); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	check("magic", func(b []byte) { b[0] = 'X' })
	check("version", func(b []byte) { b[4] = 99 })
	check("flags", func(b []byte) { b[5] = 1 })
	check("payload flip", func(b []byte) { b[HeaderSize] ^= 0xff })
	check("checksum flip", func(b []byte) { b[16] ^= 0xff })
	check("truncated", func(b []byte) { b[12]++ }) // claims one byte more than present
	if _, err := Decode(data[:HeaderSize-1]); err == nil {
		t.Error("truncated header decoded")
	}
	if _, err := Decode(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing byte accepted by Decode")
	}
}

// TestDecodeBoundsHostileHeader: a header claiming huge rows/cols must be
// rejected before any proportional allocation.
func TestDecodeBoundsHostileHeader(t *testing.T) {
	hdr := make([]byte, HeaderSize)
	copy(hdr, Magic)
	hdr[4] = Version
	binary.LittleEndian.PutUint16(hdr[6:], 1)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(MaxRows+1))
	binary.LittleEndian.PutUint32(hdr[12:], 0)
	binary.LittleEndian.PutUint32(hdr[16:], crc32.ChecksumIEEE(nil))
	if _, err := Decode(hdr); err == nil {
		t.Fatal("oversized row claim accepted")
	}
	// A valid-looking header with a dict column whose index escapes the
	// dictionary must fail cleanly.
	payload := []byte{encDict}
	payload = binary.AppendUvarint(payload, 1)
	payload = binary.AppendVarint(payload, 5)
	payload = binary.AppendUvarint(payload, 7) // index 7 of 1
	bad := make([]byte, HeaderSize)
	copy(bad, Magic)
	bad[4] = Version
	binary.LittleEndian.PutUint16(bad[6:], 1)
	binary.LittleEndian.PutUint32(bad[8:], 1)
	binary.LittleEndian.PutUint32(bad[12:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(bad[16:], crc32.ChecksumIEEE(payload))
	if _, err := Decode(append(bad, payload...)); err == nil {
		t.Fatal("out-of-range dictionary index accepted")
	}
	// The checksum covers only the payload: a header claiming MaxRows rows
	// of MaxCols columns over a valid two-byte payload must be rejected
	// before the arena for 2^34 values is allocated.
	payload = binary.AppendVarint([]byte{encConst}, 1)
	huge := hostileHeader(MaxRows, MaxCols)
	binary.LittleEndian.PutUint32(huge[12:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(huge[16:], crc32.ChecksumIEEE(payload))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	if _, err := Decode(append(huge, payload...)); err == nil {
		t.Fatal("more columns than payload bytes accepted")
	}
	runtime.ReadMemStats(&ms)
	if alloc := ms.TotalAlloc - before; alloc > 64<<10 {
		t.Fatalf("rejecting a column-count claim allocated %d bytes", alloc)
	}
}

// TestZeroRowBatchDecodes: a batch of columns but no rows (each column an
// empty raw block) decodes to an empty batch of that width.
func TestZeroRowBatchDecodes(t *testing.T) {
	payload := []byte{encRaw, encRaw}
	data := hostileHeader(0, 2)
	binary.LittleEndian.PutUint32(data[12:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(data[16:], crc32.ChecksumIEEE(payload))
	b, err := Decode(append(data, payload...))
	if err != nil {
		t.Fatal(err)
	}
	if b.Rows() != 0 || b.Cols() != 2 || len(b.Tuples()) != 0 {
		t.Fatalf("decoded %d rows × %d columns", b.Rows(), b.Cols())
	}
}

func TestRowsStream(t *testing.T) {
	rows := make([][]int64, 3*streamChunkRows/2)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i % 5)}
	}
	data, err := AppendRowsStream(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRowsStream(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("rows: got %d, want %d", len(got), len(rows))
	}
	for i := range rows {
		if !bytes.Equal(int64Bytes(got[i]), int64Bytes(rows[i])) {
			t.Fatalf("row %d: got %v, want %v", i, got[i], rows[i])
		}
	}
	// Empty streams are one empty batch, not zero bytes.
	empty, err := AppendRowsStream(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) == 0 {
		t.Fatal("empty stream encoded to zero bytes")
	}
	if got, err := DecodeRowsStream(empty); err != nil || len(got) != 0 {
		t.Fatalf("empty stream decoded to %v, %v", got, err)
	}
}

// TestRowsHint: the presize hint is exact for an ordinary stream, and a
// header claiming rows that never arrive reserves no more than the input
// length allows before its checksum fails.
func TestRowsHint(t *testing.T) {
	rows := zipfRows(3*streamChunkRows/2, 2, 3)
	data, err := AppendRowsStream(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	if got := RowsHint(data); got != len(rows) {
		t.Fatalf("hint %d, want %d", got, len(rows))
	}
	hostile := hostileHeader(MaxRows, 1)
	if got := RowsHint(hostile); got > len(hostile) {
		t.Fatalf("hint %d for a %d-byte input", got, len(hostile))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	if _, err := DecodeRowsStream(hostile); err == nil {
		t.Fatal("header with a bad checksum decoded")
	}
	runtime.ReadMemStats(&ms)
	if alloc := ms.TotalAlloc - before; alloc > 64<<10 {
		t.Fatalf("rejecting a %d-byte header allocated %d bytes", len(hostile), alloc)
	}
}

func int64Bytes(v []int64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

func TestStatsMove(t *testing.T) {
	before := ReadStats()
	roundTrip(t, []rel.Tuple{{1, 1}, {1, 1}, {1, 2}})
	after := ReadStats()
	if after.BatchesEncoded <= before.BatchesEncoded || after.BatchesDecoded <= before.BatchesDecoded {
		t.Fatalf("batch counters did not move: %+v -> %+v", before, after)
	}
	if after.BytesRaw-before.BytesRaw != 8*3*2 {
		t.Fatalf("raw bytes delta: %d", after.BytesRaw-before.BytesRaw)
	}
}

func BenchmarkEncodeTuples(b *testing.B) {
	rows := make([]rel.Tuple, 1024)
	for i := range rows {
		rows[i] = rel.Tuple{int64(i), int64(i % 16), 123456}
	}
	var e Encoder
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = e.AppendTuples(buf[:0], rows); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(8 * 1024 * 3)
}

// BenchmarkDecodeTuples measures decode ns/tuple — the receiver-side cost
// the EXPERIMENTS.md study reports.
func BenchmarkDecodeTuples(b *testing.B) {
	rows := make([]rel.Tuple, 1024)
	for i := range rows {
		rows[i] = rel.Tuple{int64(i), int64(i % 16), 123456}
	}
	var e Encoder
	data, err := e.AppendTuples(nil, rows)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, err := Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		if ts := batch.Tuples(); len(ts) != 1024 {
			b.Fatal("short decode")
		}
	}
	b.SetBytes(8 * 1024 * 3)
}

// refAppendColumn is the Go-map column encoder that dictTable replaced,
// kept as the reference whose bytes the encoder must reproduce exactly.
func refAppendColumn(dst []byte, col []int64) []byte {
	if len(col) == 0 {
		return append(dst, encRaw)
	}
	dict := make(map[int64]uint32)
	var vals []int64
	idx := make([]uint32, len(col))
	dictLimit := maxDict
	if half := len(col) / 2; half < dictLimit {
		dictLimit = half + 1
	}
	rawSize, idxSize, dictOK := 0, 0, true
	for i, v := range col {
		rawSize += zigzagLen(v)
		if !dictOK {
			continue
		}
		k, ok := dict[v]
		if !ok {
			if len(vals) >= dictLimit {
				dictOK = false
				continue
			}
			k = uint32(len(vals))
			dict[v] = k
			vals = append(vals, v)
		}
		idx[i] = k
		idxSize += uvarintLen(uint64(k))
	}
	if dictOK && len(vals) == 1 {
		return binary.AppendVarint(append(dst, encConst), col[0])
	}
	if dictOK {
		dictSize := uvarintLen(uint64(len(vals))) + idxSize
		for _, v := range vals {
			dictSize += zigzagLen(v)
		}
		if dictSize < rawSize {
			dst = binary.AppendUvarint(append(dst, encDict), uint64(len(vals)))
			for _, v := range vals {
				dst = binary.AppendVarint(dst, v)
			}
			for _, k := range idx {
				dst = binary.AppendUvarint(dst, uint64(k))
			}
			return dst
		}
	}
	dst = append(dst, encRaw)
	for _, v := range col {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

// refEncode encodes rows as one batch through refAppendColumn.
func refEncode(rows [][]int64) []byte {
	ncols := 0
	if len(rows) > 0 {
		ncols = len(rows[0])
	}
	var payload []byte
	col := make([]int64, len(rows))
	for j := 0; j < ncols; j++ {
		for i, r := range rows {
			col[i] = r[j]
		}
		payload = refAppendColumn(payload, col)
	}
	hdr := make([]byte, HeaderSize, HeaderSize+len(payload))
	copy(hdr, Magic)
	hdr[4] = Version
	binary.LittleEndian.PutUint16(hdr[6:], uint16(ncols))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(rows)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[16:], crc32.ChecksumIEEE(payload))
	return append(hdr, payload...)
}

// zipfRows returns n rows of ncols Zipf-distributed values (s=1.1 over
// 2^16 values), the skew a served join answer's columns show.
func zipfRows(n, ncols int, seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.1, 1, 1<<16)
	arena := make([]int64, n*ncols)
	rows := make([][]int64, n)
	for i := range rows {
		r := arena[i*ncols : (i+1)*ncols : (i+1)*ncols]
		for j := range r {
			r[j] = int64(z.Uint64())
		}
		rows[i] = r
	}
	return rows
}

// TestEncoderMatchesMapReference pins the encoder's bytes to the map-based
// encoder it replaced: same encodings, same first-appearance dictionaries.
func TestEncoderMatchesMapReference(t *testing.T) {
	var e Encoder // one encoder throughout, so stale table slots are live
	batch := func(name string, rows [][]int64) {
		t.Helper()
		got, err := e.AppendRows(nil, rows)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := refEncode(rows); !bytes.Equal(got, want) {
			t.Fatalf("%s: encoder output differs from the map reference (%d vs %d bytes)", name, len(got), len(want))
		}
		flat := rel.BatchOf(0, 0, nil)
		if len(rows) > 0 {
			flat.Arity = len(rows[0])
		}
		for _, r := range rows {
			flat.Append(r)
		}
		if byBatch, err := e.AppendBatch(nil, flat); err != nil || !bytes.Equal(byBatch, got) {
			t.Fatalf("%s: AppendBatch gave %d bytes (%v), AppendRows %d", name, len(byBatch), err, len(got))
		}
		if len(rows) == 0 {
			return
		}
		cols := make([][]int64, len(rows[0]))
		for j := range cols {
			for _, r := range rows {
				cols[j] = append(cols[j], r[j])
			}
		}
		if byCols, err := e.AppendColumns(nil, cols); err != nil || !bytes.Equal(byCols, got) {
			t.Fatalf("%s: AppendColumns gave %d bytes (%v), AppendRows %d", name, len(byCols), err, len(got))
		}
	}
	for i, rows := range seedBatches {
		batch(fmt.Sprintf("FuzzDecodeBatch seed %d", i), tuplesAsRows(rows))
	}
	for seed := int64(1); seed <= 8; seed++ {
		batch(fmt.Sprintf("zipf seed %d", seed), zipfRows(int(seed*seed*150), 3, seed))
	}

	column := func(name string, col []int64) byte {
		t.Helper()
		got := e.appendColumn(nil, col)
		if want := refAppendColumn(nil, col); !bytes.Equal(got, want) {
			t.Fatalf("%s: column bytes %x, map reference %x", name, got, want)
		}
		return got[0]
	}
	column("0 rows", nil)
	column("1 row", []int64{-3})
	column("2 rows", []int64{5, 9})
	column("2 equal rows", []int64{5, 5})
	column("extremes", []int64{math.MinInt64, math.MaxInt64, math.MinInt64, 0, math.MaxInt64})
	column("all MinInt64", []int64{math.MinInt64, math.MinInt64, math.MinInt64})

	// distinct returns n wide values cycling through d distinct ones; wide
	// values make the dictionary the smaller encoding whenever it survives.
	distinct := func(n, d int) []int64 {
		col := make([]int64, n)
		for i := range col {
			col[i] = 1<<40 + int64(i%d)*7919
		}
		return col
	}
	column("all equal", distinct(1000, 1))
	// Exactly dictLimit distinct values keep the dictionary, one more
	// abandons it — for the half-the-rows limit and for maxDict.
	for _, n := range []int{100, 3 * maxDict} {
		limit := min(maxDict, n/2+1)
		if enc := column(fmt.Sprintf("%d rows, dictLimit distinct", n), distinct(n, limit)); enc != encDict {
			t.Fatalf("%d rows, %d distinct: encoding %d, want dict", n, limit, enc)
		}
		if enc := column(fmt.Sprintf("%d rows, dictLimit+1 distinct", n), distinct(n, limit+1)); enc != encRaw {
			t.Fatalf("%d rows, %d distinct: encoding %d, want raw", n, limit+1, enc)
		}
	}

	// Generation wrap-around: slots stamped by the column before the wrap
	// must not read as live after it. Wide values keep both columns in the
	// dict encoding, whose bytes depend on the table.
	var w Encoder
	before := distinct(12, 3)
	after := slices.Clone(before)
	slices.Reverse(after)
	if got, want := w.appendColumn(nil, before), refAppendColumn(nil, before); !bytes.Equal(got, want) {
		t.Fatalf("before wrap: %x, want %x", got, want)
	}
	w.dict.gen = math.MaxUint32
	if got, want := w.appendColumn(nil, after), refAppendColumn(nil, after); !bytes.Equal(got, want) {
		t.Fatalf("after wrap: %x, want %x", got, want)
	}
	if w.dict.gen != 1 {
		t.Fatalf("generation after wrap: %d, want 1", w.dict.gen)
	}
}

func tuplesAsRows(ts []rel.Tuple) [][]int64 {
	rows := make([][]int64, len(ts))
	for i, t := range ts {
		rows[i] = t
	}
	return rows
}

// BenchmarkDecodeRowsStream decodes a 220k × 3 Zipf answer, the shape of
// the result_stream workload's, as the client does; ns/row is per answer
// row.
func BenchmarkDecodeRowsStream(b *testing.B) {
	rows := zipfRows(220_000, 3, 1)
	data, err := AppendRowsStream(nil, rows)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := DecodeRowsStream(data)
		if err != nil || len(got) != len(rows) {
			b.Fatalf("decoded %d of %d rows: %v", len(got), len(rows), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
}
