package spill

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"parajoin/internal/rel"
)

// oracleSort is the reference order: a comparison sort of deep copies.
func oracleSort(in []rel.Tuple) []rel.Tuple {
	out := make([]rel.Tuple, len(in))
	for i, t := range in {
		out[i] = t.Clone()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// spanTuples draws n rows whose values lie in a window of span values
// straddling zero; span 0 means the whole int64 range, with MinInt64 and
// MaxInt64 planted in every column. About a third of the rows repeat an
// earlier row.
func spanTuples(rng *rand.Rand, n, arity int, span uint64) []rel.Tuple {
	out := make([]rel.Tuple, n)
	for i := range out {
		if i > 0 && rng.Intn(3) == 0 {
			out[i] = out[rng.Intn(i)].Clone()
			continue
		}
		t := make(rel.Tuple, arity)
		for c := range t {
			if span == 0 {
				t[c] = int64(rng.Uint64())
			} else {
				t[c] = int64(rng.Uint64()%span) - int64(span/2)
			}
		}
		out[i] = t
	}
	if span == 0 && n >= 2 {
		for c := 0; c < arity; c++ {
			out[0][c], out[n-1][c] = math.MinInt64, math.MaxInt64
		}
	}
	return out
}

// sink is what Sorter and Buffer share: the tests drive both through it.
type sink interface {
	Add(rel.Tuple) error
	Finish() (Stream, error)
}

// sinks are the two spillers, each with the order it must return its
// input in: a Sorter's is the comparison sort, a Buffer's the input order.
// A Sorter is driven through both of its finishes.
var sinks = []struct {
	name   string
	open   func(Config) sink
	oracle func([]rel.Tuple) []rel.Tuple
}{
	{"Sorter", newSorter, oracleSort},
	{"SorterFlat", func(c Config) sink { return flatSorter{NewSorter(c)} }, oracleSort},
	{"Buffer", func(c Config) sink { return NewBuffer(c) }, func(in []rel.Tuple) []rel.Tuple { return in }},
}

func newSorter(c Config) sink { return NewSorter(c) }

// flatSorter finishes a Sorter with FinishFlat and streams the flat array
// back as rows, after checking it holds exactly Len()·arity values.
type flatSorter struct{ *Sorter }

func (f flatSorter) Finish() (Stream, error) {
	vals, err := f.FinishFlat()
	if err != nil {
		return nil, err
	}
	a := f.cfg.Arity
	if int64(len(vals)) != f.Len()*int64(a) || cap(vals) != len(vals) {
		return nil, fmt.Errorf("FinishFlat: %d values (cap %d) for %d rows of arity %d", len(vals), cap(vals), f.Len(), a)
	}
	rows := make([]rel.Tuple, f.Len())
	for i := range rows {
		rows[i] = vals[i*a : (i+1)*a]
	}
	return &rowStream{rows: rows}, nil
}

// rowStream streams a slice of rows.
type rowStream struct{ rows []rel.Tuple }

func (r *rowStream) Next() (rel.Tuple, error) {
	if len(r.rows) == 0 {
		return nil, io.EOF
	}
	t := r.rows[0]
	r.rows = r.rows[1:]
	return t, nil
}

func (r *rowStream) Len() int64   { return int64(len(r.rows)) }
func (r *rowStream) Close() error { return nil }

// drainThrough runs input through the sink open makes under policy and
// drains the result. Always seals runs just above the radix cutoff and
// OnPressure holds a third of the input, so both spill paths sort runs on
// both sides of the cutoff.
func drainThrough(t testing.TB, open func(Config) sink, input []rel.Tuple, arity int, policy Policy) []rel.Tuple {
	t.Helper()
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Remove()
	var limit int64
	if policy == OnPressure {
		limit = int64(len(input)/3 + 1)
	}
	s := open(Config{
		Acct:       NewAccountant(1, limit, 0),
		Arity:      arity,
		Create:     dir.Create,
		Policy:     policy,
		SealTuples: radixCutoff + 50,
		Label:      "oracle",
	})
	for _, tup := range input {
		if err := s.Add(tup); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	stream, err := s.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	got, err := Drain(stream)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	return got
}

func requireSameSequence(t testing.TB, got, want []rel.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("tuple %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestSpillSorterMatchesOracle is the differential test for the packed
// sort: every arity, value span and policy must reproduce the comparison
// sort exactly. Spans of 2³² at arity 2 and the full range at arity 1 need
// exactly 64 key bits; the full range at arity ≥ 2 and 2³² at arity ≥ 3
// take the comparison fallback.
func TestSpillSorterMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	spans := []uint64{1, 1500, 1 << 32, 0}
	sizes := []int{0, 1, radixCutoff - 1, radixCutoff, 4*radixCutoff + 3}
	for arity := 1; arity <= 4; arity++ {
		for _, span := range spans {
			for _, n := range sizes {
				for _, policy := range []Policy{Off, Always, OnPressure} {
					input := spanTuples(rng, n, arity, span)
					before := oracleSort(input)
					unsorted := make([]rel.Tuple, len(input))
					for i, tup := range input {
						unsorted[i] = tup.Clone()
					}
					for _, sk := range sinks[:2] { // Finish and FinishFlat
						got := drainThrough(t, sk.open, input, arity, policy)
						requireSameSequence(t, got, before)
						// The sorter copies: the caller's rows are untouched.
						requireSameSequence(t, input, unsorted)
					}
				}
			}
		}
	}
}

// TestSorterAddCopiesScratch adds every row through one scratch tuple that
// is overwritten after each call, as the engine's normalizing loop and the
// Tributary join's emitter do, to a Sorter and to a Buffer.
func TestSorterAddCopiesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, sk := range sinks {
		for _, policy := range []Policy{Off, Always} {
			t.Run(sk.name+"/"+policy.String(), func(t *testing.T) {
				input := spanTuples(rng, 2000, 3, 1500)
				s := sk.open(Config{Acct: NewAccountant(1, 0, 0), Arity: 3, Create: mustDir(t).Create,
					Policy: policy, SealTuples: 300, Label: "scratch"})
				scratch := make(rel.Tuple, 3)
				for _, tup := range input {
					copy(scratch, tup)
					if err := s.Add(scratch); err != nil {
						t.Fatal(err)
					}
					scratch[0], scratch[1], scratch[2] = -7, -7, -7
				}
				stream, err := s.Finish()
				if err != nil {
					t.Fatal(err)
				}
				got, err := Drain(stream)
				if err != nil {
					t.Fatal(err)
				}
				requireSameSequence(t, got, sk.oracle(input))
			})
		}
	}
}

func mustDir(t *testing.T) *Dir {
	t.Helper()
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Remove() })
	return dir
}

// TestSorterAddAllocs pins the arena of a Sorter and of a Buffer: adding n
// rows allocates once per arena chunk (the doubling ramp, then one per
// 32 KiB), never once per row.
func TestSorterAddAllocs(t *testing.T) {
	const n = 10000
	row := make(rel.Tuple, 2)
	for _, sk := range sinks {
		allocs := testing.AllocsPerRun(3, func() {
			s := sk.open(Config{Acct: NewAccountant(1, 0, 0), Arity: 2, Policy: Off, Label: "allocs"})
			for i := 0; i < n; i++ {
				row[0], row[1] = int64(i%97), int64(i)
				if err := s.Add(row); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs > 32 {
			t.Fatalf("%s: %v allocations for %d Adds, want one per arena chunk", sk.name, allocs, n)
		}
	}
}

// TestSealAllocs pins what a seal costs once its pooled encode state is
// warm: sealing a 4 096-row run allocates well under the two 64 KiB I/O
// buffers a segment file used to cost, and its object count does not grow
// with the number of seals before it. GC is held off so the pool keeps
// its state between seals, as it does between the seals of a busy run,
// and one P serves every seal: a sync.Pool item Put on one P is private
// to it, so a goroutine the scheduler moves to another P between seals
// finds the pool empty and builds a fresh state, as AllocsPerRun also
// guards against.
func TestSealAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items on purpose")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runRows = 4096
	s := NewSorter(Config{Acct: NewAccountant(1, 0, 0), Arity: 2, Create: mustDir(t).Create,
		Policy: Always, SealTuples: runRows, Label: "seal-allocs"})
	row := make(rel.Tuple, 2)
	next := int64(0)
	// sealOne adds one run's worth of rows; the first of them seals the
	// previous run.
	sealOne := func() {
		for range runRows {
			next++
			row[0], row[1] = next*7919%1000, next
			if err := s.Add(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	sealOne()
	sealOne() // warm-up: one seal
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sealOne()
	runtime.ReadMemStats(&after)
	sealBytes := after.TotalAlloc - before.TotalAlloc
	if sealBytes >= 64<<10 {
		t.Fatalf("sealing a %d-row run allocated %d bytes, want < 64 KiB", runRows, sealBytes)
	}
	early := testing.AllocsPerRun(10, sealOne)
	for range 100 {
		sealOne()
	}
	late := testing.AllocsPerRun(10, sealOne)
	t.Logf("one seal: %d bytes; objects per seal: %.1f after 13 seals, %.1f after 124", sealBytes, early, late)
	if late > early+1 {
		t.Fatalf("objects per seal grew from %.1f to %.1f with the number of seals", early, late)
	}
}

func TestRadixSortSkipsUniformDigits(t *testing.T) {
	keys := make([]uint64, 3*radixCutoff)
	for i := range keys {
		keys[i] = uint64(len(keys)-i) << 40 // low 40 bits all zero
	}
	sc := &sortScratch{keys: keys, tmp: make([]uint64, len(keys))}
	got := sc.radixSort(60)
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("keys %d, %d out of order: %x > %x", i-1, i, got[i-1], got[i])
		}
	}
}

// TestDrainHandsOverMemoryRun checks the in-memory finish is not copied:
// Drain's rows are views into the stream's own arena.
func TestDrainHandsOverMemoryRun(t *testing.T) {
	b := NewBuffer(Config{Acct: NewAccountant(1, 0, 0), Arity: 1, Policy: Off, Label: "drain"})
	for i := int64(0); i < 4; i++ {
		if err := b.Add(rel.Tuple{i}); err != nil {
			t.Fatal(err)
		}
	}
	stream, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	arena := stream.(*memStream).run.chunks[0]
	got, err := Drain(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || &got[0][0] != &arena[0] || &got[3][0] != &arena[3] {
		t.Fatal("Drain copied an unread in-memory run")
	}
}

// TestBufferArityZeroAlways holds a zero-arity Buffer under Always with no
// segment factory — the configuration the engine builds for every
// arity-0 shape — to its in-memory run: no seal is attempted.
func TestBufferArityZeroAlways(t *testing.T) {
	b := NewBuffer(Config{Acct: NewAccountant(1, 0, 0), Arity: 0, Policy: Always, SealTuples: 2, Label: "arity0"})
	for range 5 {
		if err := b.Add(rel.Tuple{}); err != nil {
			t.Fatal(err)
		}
	}
	stream, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("%d rows, want 5", len(got))
	}
	for i, r := range got {
		if len(r) != 0 {
			t.Fatalf("row %d = %v, want empty", i, r)
		}
	}
}

// FuzzSorter decodes bytes into rows — the first byte picks arity, value
// width and policy, the rest are little-endian signed values — and checks
// the sorted stream against the comparison sort, and a Buffer's stream
// under the same policy against the input order.
func FuzzSorter(f *testing.F) {
	f.Add([]byte{0x01, 3, 1, 2, 2, 9, 0, 0xff, 0x80})
	f.Add([]byte{0x1f, 0, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{0x26, 5, 5, 5, 5, 5, 5, 4, 4, 4, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		arity := int(data[0]%4) + 1
		width := 1 << (data[0] / 4 % 4) // bytes per value: 1, 2, 4 or 8
		policy := []Policy{Off, Always, OnPressure}[data[0]/16%3]
		data = data[1:]
		var input []rel.Tuple
		shift := uint(64 - 8*width) // sign-extends a width-byte value
		for len(data) >= arity*width {
			row := make(rel.Tuple, arity)
			for c := range row {
				var buf [8]byte
				copy(buf[:], data[:width])
				row[c] = int64(binary.LittleEndian.Uint64(buf[:])<<shift) >> shift
				data = data[width:]
			}
			input = append(input, row)
		}
		for _, sk := range sinks {
			requireSameSequence(t, drainThrough(t, sk.open, input, arity, policy), sk.oracle(input))
		}
	})
}

// BenchmarkSorter gives the sort layer its own per-tuple figures on 60 000
// Zipf-distributed arity-2 rows (node ids below 2 000), in memory and with
// the run sealed every eighth of its input.
func BenchmarkSorter(b *testing.B) {
	const n = 60000
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, 1999)
	input := make([]rel.Tuple, n)
	for i := range input {
		input[i] = rel.Tuple{int64(zipf.Uint64()), int64(zipf.Uint64())}
	}
	for _, arm := range []struct {
		name   string
		policy Policy
	}{{"mem", Off}, {"sealed", Always}} {
		b.Run(arm.name, func(b *testing.B) {
			base := b.TempDir()
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dir, err := NewDir(base)
				if err != nil {
					b.Fatal(err)
				}
				s := NewSorter(Config{Acct: NewAccountant(1, 0, 0), Arity: 2, Create: dir.Create,
					Policy: arm.policy, SealTuples: n / 8, Label: "bench"})
				for _, t := range input {
					if err := s.Add(t); err != nil {
						b.Fatal(err)
					}
				}
				stream, err := s.Finish()
				if err == nil {
					_, err = Drain(stream)
				}
				dir.Remove()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/tuple")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*n), "allocs/tuple")
		})
	}
}
