package ljoin

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"parajoin/internal/core"
	"parajoin/internal/rel"
)

// packedPalettes are the values fuzzed relations draw from. A relation on
// the narrow palette packs into one word; one on the wide palette spans the
// whole int64 range, so two of its non-constant columns need more than 64
// bits and it packs a word per column. Both share the small values, so
// narrow and wide relations join.
var packedPalettes = [2][]int64{
	{-3, -1, 0, 1, 2, 5},
	{-3, -1, 0, 1, 2, 5, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, -1 << 40},
}

// packedQuery builds the triangle (cycle 3) or the 4-cycle over atoms
// A0..A{n-1}, atom i joining cycle variables c_i and c_{i+1} plus the
// private payload variables p_i_j it is given, and, with unary set, an
// arity-1 atom U(c_0). order lists the cycle variables rotated by rot,
// then the payloads.
func packedQuery(cycle int, payloads []int, unary bool, rot int) (*core.Query, []core.Var) {
	cv := func(i int) core.Var { return core.Var(fmt.Sprintf("c%d", i%cycle)) }
	var atoms []core.Atom
	var order, tail []core.Var
	for i := 0; i < cycle; i++ {
		order = append(order, cv(i+rot))
		terms := []core.Term{core.V(string(cv(i))), core.V(string(cv(i + 1)))}
		for j := 0; j < payloads[i]; j++ {
			p := core.Var(fmt.Sprintf("p%d_%d", i, j))
			terms = append(terms, core.V(string(p)))
			tail = append(tail, p)
		}
		atoms = append(atoms, core.NewAtom(fmt.Sprintf("A%d", i), terms...))
	}
	if unary {
		atoms = append(atoms, core.NewAtom("U", core.V("c0")))
	}
	return core.MustQuery("Packed", nil, atoms), append(order, tail...)
}

// FuzzTributaryPacked joins random relations of arity 1–4 in a triangle or
// a 4-cycle through the packed trie and requires NaiveEvaluate's rows on
// the deduplicated inputs, serially and under Shards(k) for several k,
// every sharded run byte-identical to the serial one. Values span the
// whole int64 range, some columns are constant (a field of width 0), some
// inputs keep duplicate rows, and one-word and word-per-column relations
// are mixed in one join.
func FuzzTributaryPacked(f *testing.F) {
	f.Add([]byte{0x00, 0, 0, 0, 0, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22})
	f.Add([]byte{0x05, 0x12, 0x21, 0x33, 0x40, 20, 6, 7, 8, 9, 10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 6, 7, 8, 9, 10})
	f.Add([]byte{0x0f, 0x16, 0x27, 0x3a, 0x4b, 24, 7, 8, 7, 8, 6, 6, 9, 9, 10, 10, 0, 7, 8, 1, 6, 2, 9, 3, 10})
	// Arity-4 atoms (three directory levels) whose rows share long
	// prefixes, most of them kept as bags, narrow and wide, in a triangle
	// and a 4-cycle.
	for _, head := range [][]byte{
		{0x00, 0x7a, 0x7e, 0x7a, 0x00, 23},
		{0x01, 0x7a, 0x76, 0x7e, 0x72, 23},
	} {
		data := slices.Clone(head)
		for i := range 100 {
			data = append(data, 0, 0, byte(i/4%3), byte(i%2))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		cycle := 3 + int(data[0]&1)
		unary := data[0]&2 != 0
		rot := int(data[0]>>2) % cycle
		specs := data[1:5]
		rows := int(data[5]%24) + 1
		vals := data[6:]
		next := func(palette []int64) int64 {
			if len(vals) == 0 {
				return palette[0]
			}
			v := palette[int(vals[0])%len(palette)]
			vals = vals[1:]
			return v
		}
		// Atom i's spec byte: bits 0-1 its payload count (0-2), bit 2 the
		// wide palette, bit 3 duplicate rows kept, bits 4-6 a constant
		// column (none past its arity).
		payloads := make([]int, cycle)
		for i := range payloads {
			payloads[i] = int(specs[i]&3) % 3
		}
		q, order := packedQuery(cycle, payloads, unary, rot)
		rels := make(map[string]*rel.Relation, len(q.Atoms))
		sets := make(map[string]*rel.Relation, len(q.Atoms))
		for i, atom := range q.Atoms {
			spec := specs[i%len(specs)]
			palette := packedPalettes[spec>>2&1]
			constant := int(spec >> 4 & 7)
			schema := make([]string, len(atom.Terms))
			for c := range schema {
				schema[c] = fmt.Sprintf("col%d", c)
			}
			r := rel.New(atom.Alias, schema...)
			fixed := next(palette)
			for range rows {
				row := make(rel.Tuple, len(schema))
				for c := range row {
					if c == constant {
						row[c] = fixed
					} else {
						row[c] = next(palette)
					}
				}
				r.Tuples = append(r.Tuples, row)
			}
			sets[atom.Alias] = r.Clone().Dedup()
			rels[atom.Alias] = sets[atom.Alias]
			if spec&8 != 0 {
				rels[atom.Alias] = r
			}
		}

		want, err := NaiveEvaluate(q, sets)
		if err != nil {
			t.Fatal(err)
		}
		serial := runSerial(t, q, rels, order)
		got := &rel.Relation{Schema: want.Schema, Tuples: serial}
		if !got.Equal(want) {
			t.Fatalf("%s order %v: packed trie gave %d rows, naive %d", q, order, len(serial), want.Cardinality())
		}
		for _, k := range []int{2, 3, 7} {
			sharded, ok := runSharded(t, q, rels, order, k, k == 3)
			if ok && !sameRows(sharded, serial) {
				t.Fatalf("%s order %v: %d shards gave %d rows, not the serial run's %d in order",
					q, order, k, len(sharded), len(serial))
			}
		}
	})
}

// TestPackedTrieMixesLayouts pins that FuzzTributaryPacked's seeds reach
// both layouts in one join: a narrow relation packs into one word, a wide
// one into a word per column, and the triangle over them matches the naive
// evaluator.
func TestPackedTrieMixesLayouts(t *testing.T) {
	q, order := packedQuery(3, []int{1, 0, 2}, true, 1)
	rels := map[string]*rel.Relation{}
	words := map[string]int{}
	for i, atom := range q.Atoms {
		palette := packedPalettes[i%2]
		schema := make([]string, len(atom.Terms))
		for c := range schema {
			schema[c] = fmt.Sprintf("col%d", c)
		}
		r := rel.New(atom.Alias, schema...)
		for j := range 40 {
			row := make(rel.Tuple, len(atom.Terms))
			for c := range row {
				row[c] = palette[(j*(c+3)+c*c+i)%len(palette)]
			}
			r.Tuples = append(r.Tuples, row)
		}
		r.Dedup()
		rels[atom.Alias] = r
		s := pack(r.Clone().Sort())
		words[atom.Alias] = s.Layout.Words()
	}
	if words["A0"] != 1 || words["A1"] != 2 || words["A2"] != 1 {
		t.Fatalf("layouts: %v words per row, want A0 1, A1 2 (wide), A2 1", words)
	}
	want, err := NaiveEvaluate(q, rels)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Evaluate(q, rels, order)
	if err != nil {
		t.Fatal(err)
	}
	if want.Cardinality() == 0 || !got.Equal(want) {
		t.Fatalf("packed trie: %d rows, naive %d (want a non-empty join)", got.Cardinality(), want.Cardinality())
	}
}
