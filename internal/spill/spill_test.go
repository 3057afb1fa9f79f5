package spill

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
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

func TestSegmentRoundtrip(t *testing.T) {
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Remove()
	f, err := dir.Create()
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewSegmentWriter(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []rel.Tuple{{1, 2, 3}, {-4, 0, 1 << 40}, {7, 7, 7}}
	for _, tup := range want {
		if err := w.Write(tup); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if seg.Tuples != 3 {
		t.Fatalf("segment descriptor = %+v", seg)
	}
	if fi, err := os.Stat(seg.Path); err != nil || seg.Bytes != fi.Size() {
		t.Fatalf("segment Bytes = %d, file size = %v (%v)", seg.Bytes, fi.Size(), err)
	}
	if flat := int64(16 + 8*3*3); seg.Bytes >= flat {
		t.Fatalf("columnar segment is %d bytes, not smaller than flat %d", seg.Bytes, flat)
	}
	r, err := OpenSegment(seg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, tup := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if !got.Equal(tup) {
			t.Fatalf("tuple %d = %v, want %v", i, got, tup)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last tuple: %v, want EOF", err)
	}
}

func TestDirRemoveIdempotent(t *testing.T) {
	base := t.TempDir()
	dir, err := NewDir(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Create(); err != nil {
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

func TestSorterDiskCap(t *testing.T) {
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Remove()
	acct := NewAccountant(1, 8, 40) // disk cap smaller than one sealed run
	s := NewSorter(Config{Acct: acct, Arity: 2, Create: dir.Create, Policy: OnPressure, Label: "capped"})
	var last error
	for i := int64(0); i < 100; i++ {
		if last = s.Add(rel.Tuple{i, i}); last != nil {
			break
		}
	}
	if last != ErrDiskBudget {
		t.Fatalf("err = %v, want ErrDiskBudget", last)
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
