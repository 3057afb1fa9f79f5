package spill

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"parajoin/internal/rel"
)

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"", Default, true},
		{"default", Default, true},
		{"off", Off, true},
		{"on-pressure", OnPressure, true},
		{"on_pressure", OnPressure, true},
		{"pressure", OnPressure, true},
		{"on", OnPressure, true},
		{"always", Always, true},
		{"sometimes", Default, false},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParsePolicy(%q) succeeded, want error", c.in)
		}
	}
}

func TestAccountantReserveRelease(t *testing.T) {
	a := NewAccountant(2, 10, 0)
	if !a.Reserve(0, 10) {
		t.Fatal("reserve within budget failed")
	}
	if a.Reserve(0, 1) {
		t.Fatal("reserve over budget succeeded")
	}
	if got := a.Used(0); got != 10 {
		t.Fatalf("failed reserve changed usage: %d", got)
	}
	// Worker 1's budget is independent.
	if !a.Reserve(1, 10) {
		t.Fatal("worker 1 reserve failed")
	}
	a.Release(0, 4)
	if !a.Reserve(0, 4) {
		t.Fatal("reserve after release failed")
	}
	if got := a.Peak(0); got != 10 {
		t.Fatalf("peak = %d, want 10", got)
	}
}

func TestAccountantUnlimitedTracksPeak(t *testing.T) {
	a := NewAccountant(1, 0, 0)
	for i := 0; i < 5; i++ {
		if !a.Reserve(0, 100) {
			t.Fatal("unlimited reserve failed")
		}
	}
	a.Release(0, 500)
	if got := a.Peak(0); got != 500 {
		t.Fatalf("peak = %d, want 500", got)
	}
}

func TestAccountantBlowFirstWins(t *testing.T) {
	a := NewAccountant(1, 1, 0)
	a.Blow(0, "sort(R)")
	a.Blow(0, "hashjoin")
	op, blown := a.Blown(0)
	if !blown || op != "sort(R)" {
		t.Fatalf("Blown = %q, %v; want sort(R), true", op, blown)
	}
}

func TestAccountantDiskBudget(t *testing.T) {
	a := NewAccountant(1, 0, 100)
	if err := a.ReserveDisk(80); err != nil {
		t.Fatal(err)
	}
	if err := a.ReserveDisk(30); err != ErrDiskBudget {
		t.Fatalf("over-cap ReserveDisk = %v, want ErrDiskBudget", err)
	}
	if got := a.DiskUsed(); got != 80 {
		t.Fatalf("failed disk reserve changed usage: %d", got)
	}
}

// TestAccountantFailedReserveNeverBlocksAFit races a reserver that keeps
// asking for a stretch that cannot fit against one that reserves and
// releases a single tuple that always fits, on one worker. The failed
// stretch must never be visible: were it added and then taken back, the
// single tuple would fail now and then although the budget has room for
// it. Run it with -race.
func TestAccountantFailedReserveNeverBlocksAFit(t *testing.T) {
	const limit, held = 1000, 500
	a := NewAccountant(1, limit, 0)
	if !a.Reserve(0, held) { // a sibling operator's state
		t.Fatal("reserving the held tuples failed")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var fitted atomic.Int64
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if a.Reserve(0, limit-held+1) {
					fitted.Add(1)
					return
				}
			}
		}()
	}
	failures := 0
	for range 200000 {
		if !a.Reserve(0, 1) {
			failures++
			continue
		}
		a.Release(0, 1)
	}
	close(stop)
	wg.Wait()
	if fitted.Load() > 0 {
		t.Fatal("an over-budget stretch was reserved")
	}
	if failures > 0 {
		t.Fatalf("%d of 200000 one-tuple reservations failed with %d of %d tuples held", failures, held, limit)
	}
	if used, peak := a.Used(0), a.Peak(0); used != held || peak != held+1 {
		t.Fatalf("used %d, peak %d; want %d, %d", used, peak, held, held+1)
	}
}

// readAll drains a segment reader, failing the test on any error.
func readAll(t *testing.T, r *SegmentReader, err error) []rel.Tuple {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got []rel.Tuple
	for {
		b, err := r.Next()
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatalf("tuple %d: %v", len(got), err)
		}
		for i := range b.Len() {
			got = append(got, b.Row(i))
		}
	}
}

// TestSegmentRoundtrip writes one segment both ways the format is stored —
// as a partition file of its own and as an extent of a run file, behind
// another extent — and reads each back through the one reader.
func TestSegmentRoundtrip(t *testing.T) {
	want := []rel.Tuple{{1, 2, 3}, {-4, 0, 1 << 40}, {7, 7, 7}}
	data, err := AppendSegment(nil, 3, want)
	if err != nil {
		t.Fatal(err)
	}
	if flat := int64(16 + 8*3*3); int64(len(data)) >= flat {
		t.Fatalf("columnar segment is %d bytes, not smaller than flat %d", len(data), flat)
	}

	t.Run("partition file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "p000.seg")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil || fi.Size() != int64(len(data)) {
			t.Fatalf("segment is %d bytes, file size = %v (%v)", len(data), fi.Size(), err)
		}
		r, err := NewSegmentReader(io.NewSectionReader(f, 0, fi.Size()), 0, 3)
		if err == nil && r.Len() != 3 {
			t.Fatalf("reader Len = %d, want 3", r.Len())
		}
		requireSameSequence(t, readAll(t, r, err), want)
	})

	t.Run("run file extent", func(t *testing.T) {
		d, err := mustDir(t).Create()
		if err != nil {
			t.Fatal(err)
		}
		other, err := AppendSegment(nil, 3, []rel.Tuple{{9, 9, 9}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.append(other); err != nil {
			t.Fatal(err)
		}
		off, err := d.append(data)
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(len(other)) {
			t.Fatalf("second extent at offset %d, want %d", off, len(other))
		}
		fi, err := os.Stat(filepath.Join(d.Path(), runFileName))
		if err != nil || fi.Size() != off+int64(len(data)) {
			t.Fatalf("run file size = %v (%v), want %d", fi.Size(), err, off+int64(len(data)))
		}
		r, err := NewSegmentReader(io.NewSectionReader(d.f, off, int64(len(data))), 3, 3)
		requireSameSequence(t, readAll(t, r, err), want)
	})
}

// goldenRows is a fixed 3-column relation of 5 000 rows: two batches,
// whose columns take each of colbatch's encodings (the first is constant
// within each batch, the second a small dictionary, the third raw).
func goldenRows() []rel.Tuple {
	rows := make([]rel.Tuple, 5000)
	for i := range rows {
		v := int64(i)
		rows[i] = rel.Tuple{v / 4096, (v*37)%101 - 50, v*v*2654435761 - 1<<40}
	}
	return rows
}

// TestSegmentFormatGolden pins the format's bytes: goldenRows encoded by
// AppendSegment must be exactly what the streaming SegmentWriter of
// earlier releases wrote for them (46 016 bytes, SHA-256 captured from
// it), so partition files written by those releases stay readable.
func TestSegmentFormatGolden(t *testing.T) {
	rows := goldenRows()
	data, err := AppendSegment(nil, 3, rows)
	if err != nil {
		t.Fatal(err)
	}
	const wantSum = "7ef43b29abc8240a8ec3a88f06b1aff871ee596cda3115c71d652c1c4dbd1f6e"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); len(data) != 46016 || got != wantSum {
		t.Fatalf("segment is %d bytes, SHA-256 %s; want 46016 bytes, %s", len(data), got, wantSum)
	}
	r, err := NewSegmentReader(io.NewSectionReader(bytes.NewReader(data), 0, int64(len(data))), 3, int64(len(rows)))
	requireSameSequence(t, readAll(t, r, err), rows)
}

// TestDirRemoveIdempotent checks Remove's cleanup contract: the directory
// and its run file are gone, a second Remove is a no-op, and a stream read
// after Remove fails rather than yielding a row.
func TestDirRemoveIdempotent(t *testing.T) {
	base := t.TempDir()
	dir, err := NewDir(base)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuffer(Config{Acct: NewAccountant(1, 0, 0), Arity: 1, Create: dir.Create,
		Policy: Always, SealTuples: 2, Label: "removed"})
	for i := int64(0); i < 6; i++ {
		if err := b.Add(rel.Tuple{i}); err != nil {
			t.Fatal(err)
		}
	}
	stream, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Remove(); err != nil {
		t.Fatal(err)
	}
	if err := dir.Remove(); err != nil {
		t.Fatalf("second Remove: %v", err)
	}
	if _, err := os.Stat(dir.Path()); !os.IsNotExist(err) {
		t.Fatalf("directory still exists: %v", err)
	}
	if entries, _ := filepath.Glob(filepath.Join(base, "parajoin-spill-*")); len(entries) != 0 {
		t.Fatalf("leftover spill dirs: %v", entries)
	}
	if b, err := stream.Next(); err == nil || err == io.EOF || b.Len() != 0 {
		t.Fatalf("read after Remove = %d rows, %v; want an error and no row", b.Len(), err)
	}
	stream.Close()
	if _, err := dir.Create(); err == nil {
		t.Fatal("Create after Remove succeeded")
	}
}

// TestSpillRunFileConcurrentSeals has eight sorters on eight workers seal
// into one Dir at once. Each stream must yield exactly its own rows in
// sorted order, and the run must leave exactly one file.
func TestSpillRunFileConcurrentSeals(t *testing.T) {
	const workers = 8
	dir := mustDir(t)
	acct := NewAccountant(workers, 0, 0)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			input := make([]rel.Tuple, 1000+97*w)
			for i := range input {
				input[i] = rel.Tuple{int64(w), rng.Int63n(500)}
			}
			s := NewSorter(Config{Acct: acct, Worker: w, Arity: 2, Create: dir.Create,
				Policy: Always, SealTuples: 100, Label: fmt.Sprintf("sort-%d", w)})
			for _, tup := range input {
				if errs[w] = s.Add(tup); errs[w] != nil {
					return
				}
			}
			stream, err := s.Finish()
			if err != nil {
				errs[w] = err
				return
			}
			got, err := Drain(stream)
			if err != nil {
				errs[w] = err
				return
			}
			want := oracleSort(input)
			if len(got) != len(want) {
				errs[w] = fmt.Errorf("worker %d: %d rows, want %d", w, len(got), len(want))
				return
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					errs[w] = fmt.Errorf("worker %d: row %d = %v, want %v", w, i, got[i], want[i])
					return
				}
			}
			if s.Segments() < 10 {
				errs[w] = fmt.Errorf("worker %d sealed %d runs, want ≥ 10", w, s.Segments())
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != runFileName {
		t.Fatalf("run directory holds %v, want only %s", entries, runFileName)
	}
}

// genTuples builds a random relation with plenty of duplicates and a
// skewed key distribution (Zipf-ish via squaring).
func genTuples(rng *rand.Rand, n, arity int, domain int64) []rel.Tuple {
	out := make([]rel.Tuple, n)
	for i := range out {
		t := make(rel.Tuple, arity)
		for j := range t {
			v := rng.Int63n(domain)
			t[j] = (v * v) % domain // skew toward small values
		}
		out[i] = t
	}
	// Force exact duplicates too.
	for i := 0; i+1 < len(out); i += 7 {
		out[i+1] = out[i].Clone()
	}
	return out
}

// TestSorterMatchesInMemorySort is the external-sort property test:
// whatever budget forces however many spills, the merged stream must be
// the exact sequence an in-memory sort produces — duplicates included.
func TestSorterMatchesInMemorySort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		n      int
		arity  int
		domain int64
		limit  int64
		policy Policy
	}{
		{0, 2, 10, 4, OnPressure},
		{1, 1, 5, 1, OnPressure},
		{500, 2, 8, 64, OnPressure}, // heavy duplicates
		{1000, 3, 1 << 30, 100, OnPressure},
		{1000, 3, 16, 100, OnPressure}, // skewed keys, many collisions
		{777, 2, 1000, 50, Always},
		{300, 4, 100, 0, OnPressure}, // unlimited: no spill path
		{256, 1, 2, 16, Always},      // nearly all duplicates
	}
	for ci, c := range cases {
		input := genTuples(rng, c.n, c.arity, c.domain)

		want := make([]rel.Tuple, len(input))
		for i, tup := range input {
			want[i] = tup.Clone()
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Compare(want[j]) < 0 })

		dir, err := NewDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		acct := NewAccountant(1, c.limit, 0)
		s := NewSorter(Config{
			Acct:       acct,
			Arity:      c.arity,
			Create:     dir.Create,
			Policy:     c.policy,
			SealTuples: 32,
			Label:      "test-sort",
		})
		for _, tup := range input {
			if err := s.Add(tup); err != nil {
				t.Fatalf("case %d: Add: %v", ci, err)
			}
		}
		if c.limit > 0 && int64(c.n) > c.limit && !s.Spilled() {
			t.Fatalf("case %d: expected spill with n=%d limit=%d", ci, c.n, c.limit)
		}
		stream, err := s.Finish()
		if err != nil {
			t.Fatalf("case %d: Finish: %v", ci, err)
		}
		if got := stream.Len(); got != int64(c.n) {
			t.Fatalf("case %d: stream.Len = %d, want %d", ci, got, c.n)
		}
		got, err := Drain(stream)
		if err != nil {
			t.Fatalf("case %d: Drain: %v", ci, err)
		}
		if len(got) != len(want) {
			t.Fatalf("case %d: %d tuples, want %d", ci, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("case %d: tuple %d = %v, want %v", ci, i, got[i], want[i])
			}
		}
		dir.Remove()
	}
}

func TestBufferPreservesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	input := genTuples(rng, 400, 2, 1<<20)

	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Remove()
	acct := NewAccountant(1, 48, 0)
	b := NewBuffer(Config{Acct: acct, Arity: 2, Create: dir.Create, Policy: OnPressure, Label: "test-buffer"})
	for _, tup := range input {
		if err := b.Add(tup); err != nil {
			t.Fatal(err)
		}
	}
	if !b.Spilled() {
		t.Fatal("buffer did not spill at limit 48 with 400 tuples")
	}
	stream, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(input) {
		t.Fatalf("%d tuples, want %d", len(got), len(input))
	}
	for i := range got {
		if !got[i].Equal(input[i]) {
			t.Fatalf("tuple %d = %v, want %v (FIFO order broken)", i, got[i], input[i])
		}
	}
}

func TestSorterBudgetErrorWhenOff(t *testing.T) {
	acct := NewAccountant(1, 3, 0)
	s := NewSorter(Config{Acct: acct, Arity: 1, Policy: Off, Label: "strict-sort"})
	var err error
	for i := int64(0); i < 10; i++ {
		if err = s.Add(rel.Tuple{i}); err != nil {
			break
		}
	}
	if err != ErrBudget {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if op, blown := acct.Blown(0); !blown || op != "strict-sort" {
		t.Fatalf("Blown = %q, %v", op, blown)
	}
}

// TestSorterDiskCap checks the disk cap is enforced before the bytes reach
// the disk: a refused seal writes nothing and counts no segment.
func TestSorterDiskCap(t *testing.T) {
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Remove()
	const diskCap = 40
	acct := NewAccountant(1, 8, diskCap) // disk cap smaller than one sealed run
	s := NewSorter(Config{Acct: acct, Arity: 2, Create: dir.Create, Policy: OnPressure, Label: "capped"})
	before := ReadStats()
	var last error
	for i := int64(0); i < 100; i++ {
		if last = s.Add(rel.Tuple{i, i}); last != nil {
			break
		}
	}
	if last != ErrDiskBudget {
		t.Fatalf("err = %v, want ErrDiskBudget", last)
	}
	var onDisk int64
	err = filepath.WalkDir(dir.Path(), func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		fi, err := e.Info()
		onDisk += fi.Size()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if onDisk > diskCap {
		t.Fatalf("%d bytes on disk after the refused seal, cap %d", onDisk, diskCap)
	}
	after := ReadStats()
	if after.Segments != before.Segments || after.BytesWritten != before.BytesWritten {
		t.Fatalf("refused seal counted: segments %d → %d, bytes written %d → %d",
			before.Segments, after.Segments, before.BytesWritten, after.BytesWritten)
	}
}

func TestSpillEventsAndCounters(t *testing.T) {
	before := ReadStats()
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	acct := NewAccountant(1, 10, 0)
	s := NewSorter(Config{
		Acct:    acct,
		Arity:   1,
		Create:  dir.Create,
		Policy:  OnPressure,
		Label:   "evt",
		OnSpill: func(e Event) { events = append(events, e) },
	})
	for i := int64(0); i < 35; i++ {
		if err := s.Add(rel.Tuple{i}); err != nil {
			t.Fatal(err)
		}
	}
	stream, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drain(stream); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no spill events emitted")
	}
	var spilledTuples int64
	for _, e := range events {
		if e.Label != "evt" || e.Tuples <= 0 || e.Bytes <= 0 {
			t.Fatalf("bad event %+v", e)
		}
		spilledTuples += e.Tuples
	}
	// A spilled sorter's Finish seals its residual run, so every added
	// tuple went to disk through exactly one event.
	if spilledTuples != s.Len() {
		t.Fatalf("events account for %d tuples, added %d", spilledTuples, s.Len())
	}
	after := ReadStats()
	if after.Spills <= before.Spills || after.Segments <= before.Segments || after.BytesWritten <= before.BytesWritten || after.BytesRead <= before.BytesRead {
		t.Fatalf("counters did not advance: before %+v after %+v", before, after)
	}
	if err := dir.Remove(); err != nil {
		t.Fatal(err)
	}
}
