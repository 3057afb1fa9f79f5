package client

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"parajoin/internal/colbatch"
	"parajoin/internal/wire"
)

// BenchmarkAnswerDecode gives the served answer's decode side its per-row
// figures: a 220 000-row arity-3 answer, result_stream's size, in chunk
// frames of 2^16 values as a server sends them, read from memory with
// wire.ReadFrame, decoded and gathered into rows as Run does.
func BenchmarkAnswerDecode(b *testing.B) {
	const n, arity = 220000, 3
	const chunkRows = (1 << 16) / arity
	rng := rand.New(rand.NewSource(1))
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{rng.Int63n(3000), rng.Int63n(3000), rng.Int63n(3000)}
	}
	var frames bytes.Buffer
	var enc colbatch.Encoder
	for off := 0; off < n; off += chunkRows {
		data, err := enc.AppendRows(nil, rows[off:min(off+chunkRows, n)])
		if err != nil {
			b.Fatal(err)
		}
		if err := wire.WriteFrame(&frames, &wire.Response{ID: 1, RowsEnc: data, More: off+chunkRows < n}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var g chunks
		for r := bytes.NewReader(frames.Bytes()); r.Len() > 0; {
			var f wire.Response
			if err := wire.ReadFrame(r, &f); err != nil {
				b.Fatal(err)
			}
			g.decode(f.RowsEnc)
		}
		if g.err != nil || len(g.rows()) != n {
			b.Fatalf("decoded %d of %d rows: %v", g.n, n, g.err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N * n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/tuple")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/total, "B/tuple")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/tuple")
}
