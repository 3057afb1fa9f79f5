package partstore

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"parajoin/internal/rel"
)

func testRelation(name string, rows int) *rel.Relation {
	r := rel.New(name, "src", "dst")
	for i := 0; i < rows; i++ {
		r.AppendRow(int64(i), int64(i*7%101))
	}
	return r
}

func sortedRows(r *rel.Relation) [][2]int64 {
	out := make([][2]int64, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		out = append(out, [2]int64{t[0], t[1]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := testRelation("E", 1000)
	if err := SaveRelation(s, r, 4); err != nil {
		t.Fatal(err)
	}
	e := s.Entry("E")
	if e == nil || e.Slots != 4 || len(e.Partitions) != 4 {
		t.Fatalf("entry = %+v, want 4 slots all present", e)
	}
	if e.Cardinality != 1000 {
		t.Fatalf("cardinality = %d, want 1000", e.Cardinality)
	}
	if len(e.ColumnDistinct) != 2 || e.ColumnDistinct[0] != 1000 {
		t.Fatalf("column distinct = %v", e.ColumnDistinct)
	}
	var total int64
	for _, pe := range e.Partitions {
		total += pe.Tuples
		if pe.CRC == 0 {
			t.Fatalf("slot %d has zero checksum", pe.Slot)
		}
	}
	if total != 1000 {
		t.Fatalf("slots hold %d tuples, want 1000", total)
	}

	got, err := s.LoadRelation("E")
	if err != nil {
		t.Fatal(err)
	}
	a, b := sortedRows(r), sortedRows(got)
	if len(a) != len(b) {
		t.Fatalf("loaded %d rows, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d: got %v, want %v", i, b[i], a[i])
		}
	}
}

func TestLoadSlotsSubsetAndStability(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := testRelation("E", 500)
	if err := SaveRelation(s, r, 4); err != nil {
		t.Fatal(err)
	}
	// Every tuple of slot k must hash to slot k; the union of disjoint slot
	// sets is the whole relation.
	part, err := s.LoadSlots("E", []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range part.Tuples {
		if g := SlotOf(tu, 4); g != 0 && g != 2 {
			t.Fatalf("tuple %v in slots {0,2} hashes to %d", tu, g)
		}
	}
	rest, err := s.LoadSlots("E", []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Tuples)+len(rest.Tuples) != 500 {
		t.Fatalf("slot union has %d tuples, want 500", len(part.Tuples)+len(rest.Tuples))
	}
	// Loading the same slots twice gives identical row order (slot order,
	// write order within a slot).
	again, err := s.LoadSlots("E", []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !part.Equal(again) {
		t.Fatal("same slot set loaded twice differs")
	}
}

func TestReopenPersists(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveRelation(s, testRelation("E", 100), 2); err != nil {
		t.Fatal(err)
	}
	if err := s.SetStrings([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if v, err := s.BumpCatalog(); err != nil || v != 1 {
		t.Fatalf("bump = %d, %v", v, err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.CatalogVersion() != 1 {
		t.Fatalf("reopened version = %d, want 1", s2.CatalogVersion())
	}
	if got := s2.Strings(); len(got) != 2 || got[0] != "a" {
		t.Fatalf("reopened strings = %v", got)
	}
	if _, err := s2.LoadRelation("E"); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveRelation(s, testRelation("E", 200), 2); err != nil {
		t.Fatal(err)
	}
	e := s.Entry("E")
	path := filepath.Join(dir, e.Partitions[0].File)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadSlots("E", []int{0}); err == nil {
		t.Fatal("corrupted partition loaded without error")
	}
	if _, _, err := s.PartitionBytes("E", 0); err == nil {
		t.Fatal("corrupted partition handed off without error")
	}
	// The sibling slot is unaffected.
	if _, err := s.LoadSlots("E", []int{1}); err != nil {
		t.Fatal(err)
	}
}

func TestHandoffPutVerifiesAndIsIdempotent(t *testing.T) {
	donor, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveRelation(donor, testRelation("E", 300), 4); err != nil {
		t.Fatal(err)
	}
	recip, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	data, entry, err := donor.PartitionBytes("E", 3)
	if err != nil {
		t.Fatal(err)
	}
	meta := donor.Entry("E").Meta()

	// A tampered payload is refused and writes nothing.
	bad := append([]byte(nil), data...)
	bad[10] ^= 1
	if err := recip.PutPartition(meta, entry, bad); err == nil {
		t.Fatal("tampered handoff payload accepted")
	}
	if recip.HasPartition("E", 3, entry.CRC) {
		t.Fatal("tampered payload left a partition behind")
	}

	if err := recip.PutPartition(meta, entry, data); err != nil {
		t.Fatal(err)
	}
	if err := recip.PutPartition(meta, entry, data); err != nil {
		t.Fatalf("re-put: %v", err)
	}
	if !recip.HasPartition("E", 3, entry.CRC) {
		t.Fatal("recipient missing handed-off partition")
	}
	want, err := donor.LoadSlots("E", []int{3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := recip.LoadSlots("E", []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatal("handed-off partition differs from the donor's")
	}

	if err := donor.DropPartition("E", 3); err != nil {
		t.Fatal(err)
	}
	if donor.HasPartition("E", 3, entry.CRC) {
		t.Fatal("donor still holds a dropped partition")
	}
	if _, err := donor.LoadSlots("E", []int{3}); err == nil {
		t.Fatal("dropped partition still loads")
	}
}

func TestSlotOfMatchesSave(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := testRelation("E", 256)
	if err := SaveRelation(s, r, 8); err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 8; slot++ {
		part, err := s.LoadSlots("E", []int{slot})
		if err != nil {
			t.Fatal(err)
		}
		for _, tu := range part.Tuples {
			if got := SlotOf(tu, 8); got != slot {
				t.Fatalf("tuple %v saved in slot %d but SlotOf says %d", tu, slot, got)
			}
		}
	}
}

// goldenEdges is the relation testdata/store-94652a6 holds, saved into two
// slots by the release of that commit.
func goldenEdges() *rel.Relation {
	r := rel.New("E", "src", "dst")
	for i := int64(0); i < 300; i++ {
		r.AppendRow(i%17, (i*7)%53)
	}
	return r
}

// TestPartitionFilesFromEarlierReleaseLoad opens a store written by an
// earlier release (before partitions and sealed runs shared one encoder
// and one reader). Its partitions must load row for row, and saving the
// same relation now must write byte-identical partition files.
func TestPartitionFilesFromEarlierReleaseLoad(t *testing.T) {
	const golden = "testdata/store-94652a6"
	dir := t.TempDir()
	files, err := os.ReadDir(golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(golden, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadRelation("E")
	if err != nil {
		t.Fatal(err)
	}
	want := goldenEdges()
	var wantRows []rel.Tuple
	for _, frag := range want.HashPartition(2, []int{0, 1}, slotSeed) {
		wantRows = append(wantRows, frag.Tuples...)
	}
	if len(got.Tuples) != len(wantRows) {
		t.Fatalf("loaded %d rows, want %d", len(got.Tuples), len(wantRows))
	}
	for i := range wantRows {
		if !got.Tuples[i].Equal(wantRows[i]) {
			t.Fatalf("row %d = %v, want %v", i, got.Tuples[i], wantRows[i])
		}
	}

	fresh, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveRelation(fresh, want, 2); err != nil {
		t.Fatal(err)
	}
	for _, pe := range fresh.Entry("E").Partitions {
		old, err := os.ReadFile(filepath.Join(golden, pe.File))
		if err != nil {
			t.Fatal(err)
		}
		now, err := os.ReadFile(filepath.Join(fresh.Dir(), pe.File))
		if err != nil {
			t.Fatal(err)
		}
		if string(old) != string(now) {
			t.Fatalf("%s: %d bytes written now differ from the %d bytes of the earlier release", pe.File, len(now), len(old))
		}
	}
}
