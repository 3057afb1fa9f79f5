package partstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"parajoin/internal/rel"
	"parajoin/internal/spill"
)

const (
	// manifestName is the catalog file inside a store directory.
	manifestName = "MANIFEST.json"
	// FormatVersion is the manifest layout revision this package writes.
	FormatVersion = 1
	// DefaultSlots is the number of hash partitions a relation is sliced
	// into when the caller doesn't choose: small enough that segments stay
	// chunky, large enough that a handful of members balance well.
	DefaultSlots = 8
	// slotSeed drives the slot hash. It is a constant so every store (and
	// every restart) slices a relation identically: a tuple's slot is a pure
	// function of its values.
	slotSeed = 0x9a7cba11
)

// PartitionEntry describes one hash partition this store holds on disk.
type PartitionEntry struct {
	// Slot is the partition index in [0, RelationEntry.Slots).
	Slot int `json:"slot"`
	// File is the segment file name, relative to the store directory.
	File string `json:"file"`
	// Tuples and Bytes describe the segment (Bytes is the full file size).
	Tuples int64 `json:"tuples"`
	Bytes  int64 `json:"bytes"`
	// CRC is the IEEE CRC32 of the whole segment file. Loads and handoffs
	// verify it before trusting the bytes.
	CRC uint32 `json:"crc32"`
}

// RelationEntry describes one relation in the catalog. A store may hold any
// subset of the relation's slots (a member holds its owned slice; the
// coordinator holds all of them); the global statistics are carried in the
// entry so planning-grade numbers survive without the full data.
type RelationEntry struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	// Slots is the relation's total partition count (fixed at save time,
	// independent of cluster size).
	Slots int `json:"slots"`
	// Cardinality and ColumnDistinct are whole-relation statistics, computed
	// when the relation was saved — the numbers the share optimizer needs.
	Cardinality    int64 `json:"cardinality"`
	ColumnDistinct []int `json:"column_distinct"`
	// Partitions lists the slots present in this store, sorted by slot.
	Partitions []PartitionEntry `json:"partitions"`
}

// Meta is the slot-independent part of a RelationEntry — what a handoff
// must carry alongside the segment bytes so the recipient can create the
// relation in its own manifest.
type Meta struct {
	Name           string   `json:"name"`
	Columns        []string `json:"columns"`
	Slots          int      `json:"slots"`
	Cardinality    int64    `json:"cardinality"`
	ColumnDistinct []int    `json:"column_distinct"`
}

// Meta extracts the slot-independent metadata of an entry.
func (e *RelationEntry) Meta() Meta {
	return Meta{
		Name:           e.Name,
		Columns:        append([]string(nil), e.Columns...),
		Slots:          e.Slots,
		Cardinality:    e.Cardinality,
		ColumnDistinct: append([]int(nil), e.ColumnDistinct...),
	}
}

// Partition returns the entry for the given slot, or nil when this store
// doesn't hold it.
func (e *RelationEntry) Partition(slot int) *PartitionEntry {
	for i := range e.Partitions {
		if e.Partitions[i].Slot == slot {
			return &e.Partitions[i]
		}
	}
	return nil
}

// manifest is the on-disk catalog.
type manifest struct {
	Format         int                       `json:"format"`
	CatalogVersion int64                     `json:"catalog_version"`
	Strings        []string                  `json:"strings,omitempty"`
	Relations      map[string]*RelationEntry `json:"relations"`
}

// Store is a durable catalog of hash partitions rooted at one directory.
// Partitions are PJSPILL2 segment files (the colbatch column-major format
// internal/spill introduced), the manifest is a JSON file rewritten
// atomically (write-temp + rename) on every mutation, and every partition
// carries a whole-file CRC32 that loads and handoffs verify. Safe for
// concurrent use.
type Store struct {
	dir string

	mu sync.Mutex
	m  manifest
}

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("partstore: %w", err)
	}
	s := &Store{dir: dir, m: manifest{Format: FormatVersion, Relations: map[string]*RelationEntry{}}}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("partstore: reading manifest: %w", err)
	}
	if err := json.Unmarshal(raw, &s.m); err != nil {
		return nil, fmt.Errorf("partstore: corrupt manifest %s: %w", filepath.Join(dir, manifestName), err)
	}
	if s.m.Format != FormatVersion {
		return nil, fmt.Errorf("partstore: manifest format %d, this build speaks %d", s.m.Format, FormatVersion)
	}
	if s.m.Relations == nil {
		s.m.Relations = map[string]*RelationEntry{}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// save rewrites the manifest atomically. Callers hold s.mu.
func (s *Store) save() error {
	raw, err := json.MarshalIndent(&s.m, "", "  ")
	if err != nil {
		return fmt.Errorf("partstore: encoding manifest: %w", err)
	}
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("partstore: writing manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		return fmt.Errorf("partstore: committing manifest: %w", err)
	}
	return nil
}

// CatalogVersion returns the store's catalog version — the counter the
// cluster coordinator bumps on every membership or data change.
func (s *Store) CatalogVersion() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.CatalogVersion
}

// SetCatalogVersion persists a new catalog version (monotonic by
// convention; the store does not enforce it so members can adopt the
// coordinator's number).
func (s *Store) SetCatalogVersion(v int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.CatalogVersion = v
	return s.save()
}

// BumpCatalog increments and persists the catalog version, returning the
// new value.
func (s *Store) BumpCatalog() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.CatalogVersion++
	return s.m.CatalogVersion, s.save()
}

// SetStrings persists the string dictionary (code = index). The engine's
// dictionary must survive an engine rebuild or string constants in rules
// would decode differently after a resize.
func (s *Store) SetStrings(strs []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.Strings = append([]string(nil), strs...)
	return s.save()
}

// Strings returns the persisted string dictionary.
func (s *Store) Strings() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.m.Strings...)
}

// Relations lists the catalog entries, sorted by name. The returned entries
// are deep copies.
func (s *Store) Relations() []RelationEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.m.Relations))
	for n := range s.m.Relations {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]RelationEntry, 0, len(names))
	for _, n := range names {
		out = append(out, copyEntry(s.m.Relations[n]))
	}
	return out
}

// Entry returns a deep copy of the named relation's entry, or nil.
func (s *Store) Entry(name string) *RelationEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.m.Relations[name]
	if e == nil {
		return nil
	}
	c := copyEntry(e)
	return &c
}

func copyEntry(e *RelationEntry) RelationEntry {
	c := *e
	c.Columns = append([]string(nil), e.Columns...)
	c.ColumnDistinct = append([]int(nil), e.ColumnDistinct...)
	c.Partitions = append([]PartitionEntry(nil), e.Partitions...)
	return c
}

// SlotOf returns the slot a tuple belongs to under this package's fixed
// hash: a pure function of the tuple's values and the slot count, stable
// across stores, restarts, and cluster sizes.
func SlotOf(t rel.Tuple, slots int) int {
	cols := make([]int, len(t))
	for i := range cols {
		cols[i] = i
	}
	return int(rel.HashTuple(slotSeed, t, cols) % uint64(slots))
}

// segFile names a partition's segment file.
func segFile(name string, slot int) string {
	return fmt.Sprintf("%s.p%03d.seg", name, slot)
}

// SaveRelation hash-slices r into the given number of slots and persists
// every slot plus the relation's global statistics, replacing any previous
// version of the relation. slots <= 0 uses DefaultSlots. The catalog
// version is not bumped — that is the coordinator's decision, made once per
// batch of changes.
func SaveRelation(s *Store, r *rel.Relation, slots int) error {
	if slots <= 0 {
		slots = DefaultSlots
	}
	if r.Name == "" || r.Arity() == 0 {
		return fmt.Errorf("partstore: relation needs a name and at least one column")
	}
	cols := make([]int, r.Arity())
	for i := range cols {
		cols[i] = i
	}
	frags := r.HashPartition(slots, cols, slotSeed)

	// Global statistics, computed once on the full relation.
	distinct := make([]int, r.Arity())
	for c := range cols {
		seen := make(map[int64]struct{}, len(r.Tuples))
		for _, t := range r.Tuples {
			seen[t[c]] = struct{}{}
		}
		distinct[c] = len(seen)
	}

	entry := &RelationEntry{
		Name:           r.Name,
		Columns:        append([]string(nil), r.Schema...),
		Slots:          slots,
		Cardinality:    int64(r.Cardinality()),
		ColumnDistinct: distinct,
	}
	for slot, frag := range frags {
		pe, err := s.writeSegment(r.Name, slot, frag)
		if err != nil {
			return err
		}
		entry.Partitions = append(entry.Partitions, pe)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.Relations[r.Name] = entry
	return s.save()
}

// writeSegment writes one slot's tuples as a PJSPILL2 segment file and
// returns its partition entry (file written, not yet in the manifest).
func (s *Store) writeSegment(name string, slot int, frag *rel.Relation) (PartitionEntry, error) {
	data, err := spill.AppendSegment(nil, max(1, len(frag.Schema)), frag.Tuples)
	if err != nil {
		return PartitionEntry{}, err
	}
	if err := os.WriteFile(filepath.Join(s.dir, segFile(name, slot)), data, 0o666); err != nil {
		return PartitionEntry{}, fmt.Errorf("partstore: %w", err)
	}
	return PartitionEntry{
		Slot:   slot,
		File:   segFile(name, slot),
		Tuples: int64(len(frag.Tuples)),
		Bytes:  int64(len(data)),
		CRC:    crc32.ChecksumIEEE(data),
	}, nil
}

// PartitionBytes reads one partition's raw segment bytes, verifying the
// manifest checksum — the handoff donor path.
func (s *Store) PartitionBytes(name string, slot int) ([]byte, PartitionEntry, error) {
	s.mu.Lock()
	e := s.m.Relations[name]
	var pe *PartitionEntry
	if e != nil {
		pe = e.Partition(slot)
	}
	if pe == nil {
		s.mu.Unlock()
		return nil, PartitionEntry{}, fmt.Errorf("partstore: no partition %s/%d in this store", name, slot)
	}
	entry := *pe
	s.mu.Unlock()

	raw, err := os.ReadFile(filepath.Join(s.dir, entry.File))
	if err != nil {
		return nil, PartitionEntry{}, fmt.Errorf("partstore: %w", err)
	}
	if got := crc32.ChecksumIEEE(raw); got != entry.CRC {
		return nil, PartitionEntry{}, fmt.Errorf("partstore: partition %s/%d checksum mismatch: file %08x, manifest %08x",
			name, slot, got, entry.CRC)
	}
	return raw, entry, nil
}

// PutPartition stores one partition's raw segment bytes under the given
// relation metadata — the handoff receive path. The bytes are verified
// against crc before anything is written; a mismatch changes nothing.
// Idempotent: re-putting the same slot overwrites it.
func (s *Store) PutPartition(meta Meta, entry PartitionEntry, data []byte) error {
	if got := crc32.ChecksumIEEE(data); got != entry.CRC {
		return fmt.Errorf("partstore: refusing partition %s/%d: payload checksum %08x, expected %08x",
			meta.Name, entry.Slot, got, entry.CRC)
	}
	entry.File = segFile(meta.Name, entry.Slot)
	path := filepath.Join(s.dir, entry.File)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("partstore: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("partstore: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.m.Relations[meta.Name]
	if e == nil {
		e = &RelationEntry{
			Name:           meta.Name,
			Columns:        append([]string(nil), meta.Columns...),
			Slots:          meta.Slots,
			Cardinality:    meta.Cardinality,
			ColumnDistinct: append([]int(nil), meta.ColumnDistinct...),
		}
		s.m.Relations[meta.Name] = e
	} else {
		// Adopt the sender's global statistics: a reload after new data was
		// saved must not keep stale numbers.
		e.Columns = append([]string(nil), meta.Columns...)
		e.Slots = meta.Slots
		e.Cardinality = meta.Cardinality
		e.ColumnDistinct = append([]int(nil), meta.ColumnDistinct...)
	}
	for i := range e.Partitions {
		if e.Partitions[i].Slot == entry.Slot {
			e.Partitions[i] = entry
			return s.save()
		}
	}
	e.Partitions = append(e.Partitions, entry)
	sort.Slice(e.Partitions, func(i, j int) bool { return e.Partitions[i].Slot < e.Partitions[j].Slot })
	return s.save()
}

// DropPartition removes one partition's file and manifest entry — the
// donor's release step after the recipient verified receipt. Dropping an
// absent partition is a no-op.
func (s *Store) DropPartition(name string, slot int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.m.Relations[name]
	if e == nil {
		return nil
	}
	for i := range e.Partitions {
		if e.Partitions[i].Slot != slot {
			continue
		}
		file := e.Partitions[i].File
		e.Partitions = append(e.Partitions[:i], e.Partitions[i+1:]...)
		if err := s.save(); err != nil {
			return err
		}
		// Best-effort file removal after the manifest committed: a crash
		// in between leaves an orphan file, never a dangling entry.
		os.Remove(filepath.Join(s.dir, file))
		return nil
	}
	return nil
}

// HasPartition reports whether this store holds the slot with exactly the
// given checksum — the rejoin fast path that lets a restarted member skip
// re-receiving partitions it already has.
func (s *Store) HasPartition(name string, slot int, crc uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.m.Relations[name]
	if e == nil {
		return false
	}
	pe := e.Partition(slot)
	return pe != nil && pe.CRC == crc
}

// LoadSlots materializes the named relation from the given slots (sorted
// ascending first, so the row order is a pure function of the slot set),
// verifying each segment's checksum before decoding it.
func (s *Store) LoadSlots(name string, slots []int) (*rel.Relation, error) {
	s.mu.Lock()
	e := s.m.Relations[name]
	if e == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("partstore: unknown relation %q", name)
	}
	entry := copyEntry(e)
	s.mu.Unlock()

	r := rel.New(name, entry.Columns...)
	sorted := append([]int(nil), slots...)
	sort.Ints(sorted)
	for _, slot := range sorted {
		pe := entry.Partition(slot)
		if pe == nil {
			return nil, fmt.Errorf("partstore: relation %q is missing slot %d in this store", name, slot)
		}
		if err := s.loadSegment(r, name, *pe); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// LoadRelation materializes every slot this store holds of the named
// relation, failing if any of the relation's slots are absent.
func (s *Store) LoadRelation(name string) (*rel.Relation, error) {
	e := s.Entry(name)
	if e == nil {
		return nil, fmt.Errorf("partstore: unknown relation %q", name)
	}
	if len(e.Partitions) != e.Slots {
		return nil, fmt.Errorf("partstore: relation %q has %d of %d slots in this store",
			name, len(e.Partitions), e.Slots)
	}
	slots := make([]int, 0, e.Slots)
	for _, pe := range e.Partitions {
		slots = append(slots, pe.Slot)
	}
	return s.LoadSlots(name, slots)
}

// loadSegment appends one verified segment's tuples to r. The file is
// read once: the checksum is verified over the bytes that are decoded.
func (s *Store) loadSegment(r *rel.Relation, name string, pe PartitionEntry) error {
	raw, err := os.ReadFile(filepath.Join(s.dir, pe.File))
	if err != nil {
		return fmt.Errorf("partstore: %w", err)
	}
	if crc := crc32.ChecksumIEEE(raw); crc != pe.CRC {
		return fmt.Errorf("partstore: partition %s/%d checksum mismatch: file %08x, manifest %08x",
			name, pe.Slot, crc, pe.CRC)
	}
	// Arity 0: the arity is validated from the segment header.
	rd, err := spill.NewSegmentReader(io.NewSectionReader(bytes.NewReader(raw), 0, int64(len(raw))), 0, pe.Tuples)
	if err != nil {
		return fmt.Errorf("partstore: partition %s/%d: %w", name, pe.Slot, err)
	}
	defer rd.Close()
	for {
		b, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("partstore: partition %s/%d: %w", name, pe.Slot, err)
		}
		for i := range b.Len() {
			r.Append(b.Row(i))
		}
	}
}
