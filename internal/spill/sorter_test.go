package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"parajoin/internal/colbatch"
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
	AddBatch(rel.Batch) error
	Len() int64
	Segments() int
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
	{"SorterFlat", newPackedSorter, oracleSort},
	{"Buffer", func(c Config) sink { return NewBuffer(c) }, func(in []rel.Tuple) []rel.Tuple { return in }},
}

func newSorter(c Config) sink { return NewSorter(c) }

func newPackedSorter(c Config) sink { return packedSorter{NewSorter(c)} }

// packedSorter finishes a Sorter with FinishPacked and streams the
// decoded rows back as one batch, after checking the words hold exactly
// Len() rows of the layout's width.
type packedSorter struct{ *Sorter }

func (f packedSorter) Finish() (Stream, error) {
	words, p, err := f.FinishPacked()
	if err != nil {
		return nil, err
	}
	a, w := f.cfg.Arity, p.Words()
	if int64(len(words)) != f.Len()*int64(w) || len(p.Fields()) != a {
		return nil, fmt.Errorf("FinishPacked: %d words of %d-word rows, %d fields, for %d rows of arity %d",
			len(words), w, len(p.Fields()), f.Len(), a)
	}
	b := rel.BatchOf(a, 0, nil)
	row := make(rel.Tuple, a)
	for i := range int(f.Len()) {
		p.Unpack(words[i*w:(i+1)*w], row)
		b.Append(row)
	}
	return &batchStream{b: b}, nil
}

// batchStream streams one batch.
type batchStream struct {
	b    rel.Batch
	done bool
}

func (s *batchStream) Next() (rel.Batch, error) {
	if s.done {
		return rel.Batch{}, io.EOF
	}
	s.done = true
	return s.b, nil
}

func (s *batchStream) Len() int64   { return int64(s.b.Len()) }
func (s *batchStream) Close() error { return nil }

// drainThrough runs input through the sink open makes under policy and
// drains the result. Always seals runs of seal rows and OnPressure holds a
// third of the input. With splits nil every row goes in with Add;
// otherwise the input goes in with AddBatch, in batches of random lengths
// drawn from splits.
func drainThrough(t testing.TB, open func(Config) sink, input []rel.Tuple, arity int, policy Policy, seal int, splits *rand.Rand) []rel.Tuple {
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
		SealTuples: seal,
		Label:      "oracle",
	})
	if splits == nil {
		for _, tup := range input {
			if err := s.Add(tup); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}
	} else {
		for _, b := range randomBatches(splits, input, 2*radixCutoff) {
			if err := s.AddBatch(batchOf(arity, b)); err != nil {
				t.Fatalf("AddBatch: %v", err)
			}
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

// randomBatches cuts rows into consecutive batches of 1 to most rows,
// lengths drawn from rng.
func randomBatches(rng *rand.Rand, rows []rel.Tuple, most int) [][]rel.Tuple {
	var out [][]rel.Tuple
	for len(rows) > 0 {
		n := min(1+rng.Intn(most), len(rows))
		out = append(out, rows[:n])
		rows = rows[n:]
	}
	return out
}

// batchOf lays rows of the given arity out as one batch, as AddBatch
// takes them.
func batchOf(arity int, rows []rel.Tuple) rel.Batch {
	b := rel.BatchOf(arity, 0, nil)
	for _, t := range rows {
		b.Append(t)
	}
	return b
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
					for _, sk := range sinks[:2] { // Finish and FinishPacked
						// Runs just above the radix cutoff: both spill paths
						// sort runs on both sides of it.
						got := drainThrough(t, sk.open, input, arity, policy, radixCutoff+50, nil)
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

// TestAddBatchAllocs pins that adding a batch to a warm run allocates
// nothing: once the arena holds the chunks a batch needs, as it does after
// a seal (which keeps them for the next run), AddBatch is one reservation
// and bulk copies.
func TestAddBatchAllocs(t *testing.T) {
	vals := make([]int64, 1024*3)
	for i := range vals {
		vals[i] = int64(i * 7919 % 1000)
	}
	batch := rel.BatchOf(3, 1024, vals)
	cfg := Config{Acct: NewAccountant(1, 0, 0), Arity: 3, Policy: Off, Label: "allocs"}
	for name, sp := range map[string]*spiller{"Sorter": &NewSorter(cfg).spiller, "Buffer": &NewBuffer(cfg).spiller} {
		allocs := testing.AllocsPerRun(20, func() {
			sp.run.reset()
			if err := sp.AddBatch(batch); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: a warm AddBatch of 1 024 rows allocates %.1f times, want 0", name, allocs)
		}
	}
}

// TestFinishPackedRecyclesChunks pins that a run FinishPacked has packed
// out hands its chunks to the next run: a second sorter taking as many rows
// allocates none of its 543 KiB of chunks, ramp or full size. GC is held
// off and one P serves both sorters, so the pools keep what they are given
// (see TestSealAllocs).
func TestFinishPackedRecyclesChunks(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items on purpose")
	}
	if arenaFirstChunk<<(arenaSizes-1) != arenaMaxChunk {
		t.Fatalf("%d chunk sizes from %d values do not end at %d", arenaSizes, arenaFirstChunk, arenaMaxChunk)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	vals := make([]int64, 16*arenaMaxChunk)
	for i := range vals {
		vals[i] = int64(i % 1000)
	}
	fill := func() *Sorter {
		s := NewSorter(Config{Acct: NewAccountant(1, 0, 0), Arity: 2, Policy: Off, Label: "recycle"})
		if err := s.AddBatch(rel.BatchOf(2, len(vals)/2, vals)); err != nil {
			t.Fatal(err)
		}
		return s
	}
	if _, _, err := fill().FinishPacked(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fill()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<10 {
		t.Fatalf("filling a sorter after FinishPacked allocated %d bytes, want < 8 KiB", got)
	}
}

// TestAddBatchMatchesAdd feeds the same rows to a sink twice, row by row
// with Add and in random batches with AddBatch, and requires the two to
// agree on everything observable: the rows, Len, Segments, the worker's
// reservation and peak, the error and the operator it blames. The budgets
// are small enough that a batch's stretch is refused part way through,
// and between batches a sibling operator on the same worker reserves or
// releases part of the budget, at times all of it, which forces the
// singleton seals of the last resort.
func TestAddBatchMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	type outcome struct {
		rows       []rel.Tuple
		n          int64
		segs       int
		used, peak int64
		err        error
		blown      string
	}
	for _, sk := range sinks {
		for _, policy := range []Policy{Off, OnPressure, Always} {
			for trial := range 25 {
				arity := 1 + rng.Intn(3)
				input := spanTuples(rng, rng.Intn(1500), arity, 1500)
				var limit int64 // unlimited in one trial of five
				if trial%5 != 0 {
					limit = 1 + rng.Int63n(400)
				}
				seal := 1 + rng.Intn(300)
				batches := randomBatches(rng, input, 600)
				sibling := make([]int64, len(batches)) // > 0 reserves, 0 releases all
				for i := range sibling {
					if rng.Intn(3) > 0 {
						sibling[i] = rng.Int63n(limit + 2)
					}
				}
				feed := func(flat bool) (o outcome) {
					acct := NewAccountant(1, limit, 0)
					s := sk.open(Config{Acct: acct, Arity: arity, Create: mustDir(t).Create,
						Policy: policy, SealTuples: seal, Label: "stretch"})
					var held int64
					for i, b := range batches {
						if sibling[i] == 0 {
							acct.Release(0, held)
							held = 0
						} else if acct.Reserve(0, sibling[i]) {
							held += sibling[i]
						}
						if flat {
							o.err = s.AddBatch(batchOf(arity, b))
						} else {
							for _, tup := range b {
								if o.err = s.Add(tup); o.err != nil {
									break
								}
							}
						}
						if o.err != nil {
							break
						}
					}
					o.n, o.segs, o.used, o.peak = s.Len(), s.Segments(), acct.Used(0), acct.Peak(0)
					o.blown, _ = acct.Blown(0)
					if o.err == nil {
						stream, err := s.Finish()
						if err != nil {
							t.Fatal(err)
						}
						if o.rows, err = Drain(stream); err != nil {
							t.Fatal(err)
						}
					}
					return o
				}
				want, got := feed(false), feed(true)
				name := fmt.Sprintf("%s/%v/trial %d (%d rows, limit %d, seal %d)", sk.name, policy, trial, len(input), limit, seal)
				if got.err != want.err || got.blown != want.blown {
					t.Fatalf("%s: AddBatch error %v blaming %q, Add error %v blaming %q", name, got.err, got.blown, want.err, want.blown)
				}
				if got.n != want.n || got.segs != want.segs || got.used != want.used || got.peak != want.peak {
					t.Fatalf("%s: AddBatch len %d, segments %d, used %d, peak %d; Add %d, %d, %d, %d",
						name, got.n, got.segs, got.used, got.peak, want.n, want.segs, want.used, want.peak)
				}
				requireSameSequence(t, got.rows, want.rows)
			}
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
	sc.radixSort(60)
	got := sc.keys
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

// TestPackedMergeMatchesInMemory seals runs at chosen rows and holds a
// spilled FinishPacked, its words decoded through the returned layout, to
// the in-memory sort of the same rows: 2, 3, 7 and 64 seals, arity 1 to 4,
// duplicates that straddle seals, the last run sealed before the finish
// (an empty residual run) or left in memory for it, and runs that each
// fit one word while the sorter-wide layout needs a word per column,
// because the later seals hold values at or above 2^40.
func TestPackedMergeMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for _, seals := range []int{2, 3, 7, 64} {
		for arity := 1; arity <= 4; arity++ {
			for _, widen := range []bool{false, true} {
				for _, residual := range []bool{false, true} {
					name := fmt.Sprintf("%d seals, arity %d, widen %v, residual %v", seals, arity, widen, residual)
					s := NewSorter(Config{Acct: NewAccountant(1, 0, 0), Arity: arity, Create: mustDir(t).Create,
						Policy: Always, SealTuples: math.MaxInt32, Label: "merge"})
					var input []rel.Tuple
					var earlier [2][]rel.Tuple // rows of earlier runs, by offset
					for run := range seals {
						half := 0
						if widen && run >= seals/2 {
							half = 1
						}
						rows := make([]rel.Tuple, 1+rng.Intn(2*radixCutoff))
						for i := range rows {
							if prev := earlier[half]; len(prev) > 0 && rng.Intn(3) == 0 {
								rows[i] = prev[rng.Intn(len(prev))]
								continue
							}
							rows[i] = make(rel.Tuple, arity)
							for c := range rows[i] {
								rows[i][c] = rng.Int63n(40) - 20 + int64(half)<<40
							}
						}
						earlier[half] = append(earlier[half], rows...)
						input = append(input, rows...)
						if err := s.AddBatch(batchOf(arity, rows)); err != nil {
							t.Fatal(err)
						}
						if run < seals-1 || !residual {
							if err := s.seal(); err != nil {
								t.Fatal(err)
							}
						}
					}
					words, p, err := s.FinishPacked()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					wantWords := 1
					if widen && arity > 1 {
						wantWords = arity
					}
					if s.Segments() != seals || p.Words() != wantWords {
						t.Fatalf("%s: %d segments of %d-word rows, want %d of %d", name, s.Segments(), p.Words(), seals, wantWords)
					}
					w := p.Words()
					got := make([]rel.Tuple, len(words)/w)
					for i := range got {
						if i > 0 && slices.Compare(words[(i-1)*w:i*w], words[i*w:(i+1)*w]) > 0 {
							t.Fatalf("%s: packed rows %d and %d out of order", name, i-1, i)
						}
						got[i] = make(rel.Tuple, arity)
						p.Unpack(words[i*w:(i+1)*w], got[i])
					}
					requireSameSequence(t, got, oracleSort(input))
				}
			}
		}
	}
}

// TestSpilledFinishPackedAllocs pins that a spilled FinishPacked allocates
// per sealed run, not per row: each run's reader decodes every batch into
// one arena and packs it into one word buffer. Merging 64 k rows in 16
// seals (a batch per seal) and four times the rows in as many seals (four
// batches per seal) allocate the same objects. GC is held off and one P
// serves every sort, as in TestSealAllocs.
func TestSpilledFinishPackedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items on purpose")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const seals = 16
	finishAllocs := func(rows int) uint64 {
		s := NewSorter(Config{Acct: NewAccountant(1, 0, 0), Arity: 2, Create: mustDir(t).Create,
			Policy: Always, SealTuples: math.MaxInt32, Label: "merge-allocs"})
		vals := make([]int64, 2*rows/seals)
		for k := range seals {
			// Wide values from a few hundred: every batch column is
			// dictionary-encoded, however many rows its run has.
			for i := range vals {
				vals[i] = 1<<40 + int64((k*len(vals)+i)*7919%300)
			}
			if err := s.AddBatch(rel.BatchOf(2, len(vals)/2, vals)); err != nil {
				t.Fatal(err)
			}
			if err := s.seal(); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := s.FinishPacked(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	one, four := finishAllocs(64<<10), finishAllocs(256<<10)
	t.Logf("objects a spilled FinishPacked allocates over %d seals: %d for 64 k rows, %d for 256 k", seals, one, four)
	if four > one+2 || one > 8*seals {
		t.Fatalf("%d objects for 64 k rows, %d for 256 k, over %d seals: want at most %d and no growth with rows",
			one, four, seals, 8*seals)
	}
}

// corruptBatch flips the first payload byte of batch k of the sealed run
// x in its run file.
func corruptBatch(t *testing.T, x extent, k int) {
	t.Helper()
	off := x.off + segHeaderSize
	hdr := make([]byte, colbatch.HeaderSize)
	for range k {
		if _, err := x.dir.f.ReadAt(hdr, off); err != nil {
			t.Fatal(err)
		}
		off += colbatch.HeaderSize + int64(binary.LittleEndian.Uint32(hdr[12:]))
	}
	b := make([]byte, 1)
	if _, err := x.dir.f.ReadAt(b, off+colbatch.HeaderSize); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x5a
	if _, err := x.dir.f.WriteAt(b, off+colbatch.HeaderSize); err != nil {
		t.Fatal(err)
	}
}

// TestFinishPackedCorruptExtent flips one payload byte of the middle of
// three sealed runs in the run file — in its first batch, which the merge
// reads as it starts, or its third, which it reads midway — and requires
// every finish to fail with colbatch's checksum error: FinishPacked with
// no words, the merge it runs with every reader closed, and Finish through
// Drain. The run directory then removes cleanly.
func TestFinishPackedCorruptExtent(t *testing.T) {
	const runRows = 2*segChunkRows + 100 // three batches per sealed run
	vals := make([]int64, 2*3*runRows)
	for i := range vals {
		vals[i] = int64(i * 7919 % 5000)
	}
	for _, batch := range []int{0, 2} {
		for _, finish := range []string{"FinishPacked", "mergePacked", "Finish"} {
			name := fmt.Sprintf("%s, batch %d corrupt", finish, batch)
			dir, err := NewDir(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			s := NewSorter(Config{Acct: NewAccountant(1, 0, 0), Arity: 2, Create: dir.Create,
				Policy: Always, SealTuples: runRows, Label: "corrupt"})
			if err := s.AddBatch(rel.BatchOf(2, len(vals)/2, vals)); err != nil {
				t.Fatal(err)
			}
			corruptBatch(t, s.segs[1], batch)
			switch finish {
			case "FinishPacked":
				var words []uint64
				words, _, err = s.FinishPacked()
				if words != nil {
					t.Fatalf("%s: %d words from a corrupt run", name, len(words))
				}
			case "mergePacked":
				rs, ferr := s.finish()
				if ferr != nil {
					t.Fatal(ferr)
				}
				var words []uint64
				words, err = mergePacked(rs, rel.NewRowPacker(s.lo, s.hi), s.total, "corrupt")
				if words != nil {
					t.Fatalf("%s: %d words from a corrupt run", name, len(words))
				}
				for i, r := range rs {
					if r.buf != nil {
						t.Fatalf("%s: reader %d of %d left open", name, i, len(rs))
					}
				}
			case "Finish":
				var st Stream
				if st, err = s.Finish(); err == nil {
					_, err = Drain(st)
				}
			}
			if !errors.Is(err, colbatch.ErrChecksum) {
				t.Fatalf("%s: error %v, want colbatch's checksum mismatch", name, err)
			}
			if err := dir.Remove(); err != nil {
				t.Fatalf("%s: removing the run directory: %v", name, err)
			}
		}
	}
}

// FuzzSorter decodes bytes into rows — the first byte picks arity, value
// width, policy and the run size Always seals at (2 to radixCutoff+50, so
// short inputs merge several seals too), the rest are little-endian signed
// values — and checks
// the sorted stream against the comparison sort, and a Buffer's stream
// under the same policy against the input order: once with the rows added
// one by one, once in AddBatch batches of lengths seeded from the input.
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
		seal := 2 + int(data[0])*(radixCutoff+48)/255
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
		splits := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(data))))
		for _, sk := range sinks {
			want := sk.oracle(input)
			requireSameSequence(t, drainThrough(t, sk.open, input, arity, policy, seal, nil), want)
			requireSameSequence(t, drainThrough(t, sk.open, input, arity, policy, seal, splits), want)
		}
		// Under every policy the packed hand-off decodes to exactly the
		// rows Finish and Drain give, one-word and wider layouts alike.
		for _, policy := range []Policy{Off, OnPressure, Always} {
			want := drainThrough(t, newSorter, input, arity, policy, seal, nil)
			requireSameSequence(t, drainThrough(t, newPackedSorter, input, arity, policy, seal, nil), want)
		}
	})
}

// BenchmarkSorter gives the sort layer its own per-tuple figures on 60 000
// Zipf-distributed arity-2 rows (node ids below 2 000), in memory and with
// the run sealed every eighth of its input. The mem and sealed arms add
// row by row and drain Finish's stream; the packed arms add 1 024-row
// batches with AddBatch and take FinishPacked's words, the sort the engine
// runs.
func BenchmarkSorter(b *testing.B) {
	const n = 60000
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, 1999)
	input := make([]rel.Tuple, n)
	for i := range input {
		input[i] = rel.Tuple{int64(zipf.Uint64()), int64(zipf.Uint64())}
	}
	flat := batchOf(2, input).Vals
	stream := func(s *Sorter) error {
		for _, t := range input {
			if err := s.Add(t); err != nil {
				return err
			}
		}
		st, err := s.Finish()
		if err == nil {
			_, err = Drain(st)
		}
		return err
	}
	packed := func(s *Sorter) error {
		for vals := flat; len(vals) > 0; {
			k := min(len(vals), 1024*2)
			if err := s.AddBatch(rel.BatchOf(2, k/2, vals[:k])); err != nil {
				return err
			}
			vals = vals[k:]
		}
		_, _, err := s.FinishPacked()
		return err
	}
	for _, arm := range []struct {
		name   string
		policy Policy
		sort   func(*Sorter) error
	}{{"mem", Off, stream}, {"sealed", Always, stream}, {"packed/mem", Off, packed}, {"packed/sealed", Always, packed}} {
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
				err = arm.sort(NewSorter(Config{Acct: NewAccountant(1, 0, 0), Arity: 2, Create: dir.Create,
					Policy: arm.policy, SealTuples: n / 8, Label: "bench"}))
				dir.Remove()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			tuples := float64(b.N * n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tuples, "ns/tuple")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/tuples, "B/tuple")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/tuples, "allocs/tuple")
		})
	}
}
