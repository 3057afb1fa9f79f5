package engine

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"parajoin/internal/core"
	"parajoin/internal/ljoin"
	"parajoin/internal/rel"
	"parajoin/internal/spill"
)

// keyedRel is a relation of n rows whose first k columns are a key drawn
// from pool (the whole int64 range when pool is nil), followed by one
// payload column. Columns are named prefix0, prefix1, ...
func keyedRel(rng *rand.Rand, name, prefix string, n, k int, pool []int64) *rel.Relation {
	cols := make([]string, k+1)
	for i := range cols {
		cols[i] = prefix + strconv.Itoa(i)
	}
	r := rel.New(name, cols...)
	for range n {
		row := make(rel.Tuple, k+1)
		for c := range k {
			switch {
			case pool != nil:
				row[c] = pool[rng.Intn(len(pool))]
			case rng.Intn(8) == 0:
				row[c] = []int64{math.MinInt64, math.MaxInt64, -1, 0}[rng.Intn(4)]
			default:
				row[c] = rng.Int63() - rng.Int63()
			}
		}
		row[k] = rng.Int63n(1000) - 500
		r.Append(row)
	}
	return r
}

func keyCols(prefix string, k int) (names []string, idx []int) {
	for i := range k {
		names = append(names, prefix+strconv.Itoa(i))
		idx = append(idx, i)
	}
	return names, idx
}

// keyedCase is one oracle comparison: two keyed relations with the same
// key arity, run at one batch size on one cluster size.
type keyedCase struct {
	name          string
	left, right   *rel.Relation
	k             int
	batch, worker int
}

// keyedCases crosses key arity 1–3, duplicate-heavy and full-range keys
// (negatives, math.MinInt64 and math.MaxInt64 among them), empty sides,
// batch sizes 1, 7 and 1 024, and 1 and 4 workers.
func keyedCases() []keyedCase {
	rng := rand.New(rand.NewSource(37))
	dup := []int64{math.MinInt64, math.MinInt64 + 1, -3, 0, 5, math.MaxInt64}
	var cases []keyedCase
	for k := 1; k <= 3; k++ {
		for _, d := range []struct {
			name        string
			left, right int
			pool        []int64
		}{
			{"dup", 240, 160, dup},
			{"wide", 300, 300, nil},
			{"emptyleft", 0, 50, dup},
			{"emptyright", 50, 0, dup},
		} {
			l := keyedRel(rng, "L", "l", d.left, k, d.pool)
			r := keyedRel(rng, "R", "r", d.right, k, d.pool)
			if d.pool == nil {
				// Full-range keys rarely meet by chance; give the right side
				// some of the left's keys.
				for i, t := range r.Tuples {
					if i%3 == 0 {
						copy(t[:k], l.Tuples[rng.Intn(len(l.Tuples))][:k])
					}
				}
			}
			for _, batch := range []int{1, 7, 1024} {
				for _, workers := range []int{1, 4} {
					cases = append(cases, keyedCase{
						name: fmt.Sprintf("k%d/%s/b%d/w%d", k, d.name, batch, workers),
						left: l, right: r, k: k, batch: batch, worker: workers,
					})
				}
			}
		}
	}
	return cases
}

// runKeyed loads the case's relations, shuffles both on their key columns
// and runs root (over Recv 0 = left, Recv 1 = right) on every worker.
func runKeyed(t *testing.T, kc keyedCase, root Node) *rel.Relation {
	t.Helper()
	c := NewCluster(kc.worker)
	defer c.Close()
	c.BatchSize = kc.batch
	c.Load(kc.left)
	c.Load(kc.right)
	lNames, _ := keyCols("l", kc.k)
	rNames, _ := keyCols("r", kc.k)
	plan := &Plan{
		Exchanges: []ExchangeSpec{
			{ID: 0, Input: Scan{Table: "L"}, Kind: RouteHash, HashCols: lNames, Seed: 3},
			{ID: 1, Input: Scan{Table: "R"}, Kind: RouteHash, HashCols: rNames, Seed: 3},
		},
		Root: root,
	}
	got, _, err := c.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestHashJoinMatchesOracle(t *testing.T) {
	for _, kc := range keyedCases() {
		t.Run(kc.name, func(t *testing.T) {
			lNames, lIdx := keyCols("l", kc.k)
			rNames, rIdx := keyCols("r", kc.k)
			got := runKeyed(t, kc, HashJoin{
				Left:     Recv{Exchange: 0, Schema: kc.left.Schema},
				Right:    Recv{Exchange: 1, Schema: kc.right.Schema},
				LeftCols: lNames, RightCols: rNames,
			})
			want := ljoin.HashJoin(kc.left, kc.right, lIdx, rIdx)
			if !got.Equal(want) {
				t.Fatalf("hash join: %d rows, oracle %d", got.Cardinality(), want.Cardinality())
			}
		})
	}
}

func TestSemiJoinMatchesOracle(t *testing.T) {
	for _, kc := range keyedCases() {
		t.Run(kc.name, func(t *testing.T) {
			lNames, lIdx := keyCols("l", kc.k)
			rNames, rIdx := keyCols("r", kc.k)
			got := runKeyed(t, kc, SemiJoin{
				Left:     Recv{Exchange: 0, Schema: kc.left.Schema},
				Right:    Recv{Exchange: 1, Schema: kc.right.Schema},
				LeftCols: lNames, RightCols: rNames,
			})
			want := ljoin.Semijoin(kc.left, kc.right, lIdx, rIdx)
			if !got.Equal(want) {
				t.Fatalf("semijoin: %d rows, oracle %d", got.Cardinality(), want.Cardinality())
			}
		})
	}
}

func TestProjectDedupMatchesOracle(t *testing.T) {
	for _, kc := range keyedCases() {
		t.Run(kc.name, func(t *testing.T) {
			lNames, lIdx := keyCols("l", kc.k)
			// Shuffled on the key, so equal projections meet on one worker.
			got := runKeyed(t, kc, Project{
				Input: Recv{Exchange: 0, Schema: kc.left.Schema}, Cols: lNames, Dedup: true,
			})
			seen := map[string]bool{}
			want := rel.New("want", lNames...)
			for _, r := range kc.left.Project("p", lIdx).Tuples {
				if !seen[r.String()] {
					seen[r.String()] = true
					want.Append(r)
				}
			}
			if !got.Equal(want) {
				t.Fatalf("dedup: %d rows, oracle %d", got.Cardinality(), want.Cardinality())
			}
		})
	}
}

// TestKeyTableFiltersForcedCollisions forces every row under one hash:
// the probe must still return only rows whose key columns equal the
// probe's, in insertion order, and insert-if-absent must tell the keys
// apart.
func TestKeyTableFiltersForcedCollisions(t *testing.T) {
	const h = 42
	tab := newKeyTable(3, []int{0, 1})
	rows := []rel.Tuple{{1, 2, 100}, {2, 1, 101}, {1, 2, 102}, {1, 3, 103}, {1, 2, 104}, {2, 1, 105}}
	for i, r := range rows {
		tab.insert(r, h, false)
		if i == 0 && tab.insert(rel.Tuple{1, 2, 999}, h, true) {
			t.Fatal("insert-if-absent stored a present key")
		}
	}
	if !tab.insert(rel.Tuple{3, 3, 106}, h, true) {
		t.Fatal("insert-if-absent refused a new key under a shared hash")
	}
	for _, c := range []struct {
		probe rel.Tuple // key in columns 1 and 2
		want  []int64   // payloads in insertion order
	}{
		{rel.Tuple{-1, 1, 2}, []int64{100, 102, 104}},
		{rel.Tuple{-1, 2, 1}, []int64{101, 105}},
		{rel.Tuple{-1, 1, 3}, []int64{103}},
		{rel.Tuple{-1, 3, 3}, []int64{106}},
		{rel.Tuple{-1, 3, 1}, nil},
	} {
		var got []int64
		for m := tab.find(c.probe, []int{1, 2}, h); m >= 0; m = tab.next[m] {
			got = append(got, tab.row(m)[2])
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("probe %v: payloads %v, want %v", c.probe[1:], got, c.want)
		}
	}
}

// TestKeyTableSpansChunks stores enough rows to fill several arena chunks
// and grow the slot array many times, then reads every row back.
func TestKeyTableSpansChunks(t *testing.T) {
	const n = 20000
	tab := newKeyTable(3, []int{0})
	for i := range n {
		tab.insert(rel.Tuple{int64(i % 7000), int64(i), -int64(i)}, uint64(i%7000), false)
	}
	if len(tab.chunks) < 2 || tab.used != 7000 {
		t.Fatalf("%d chunks, %d keys", len(tab.chunks), tab.used)
	}
	for i := range n {
		if r := tab.row(int32(i)); r[1] != int64(i) || r[2] != -int64(i) {
			t.Fatalf("row %d reads %v", i, r)
		}
	}
	probe := rel.Tuple{6999}
	var got []int64
	for m := tab.find(probe, []int{0}, 6999); m >= 0; m = tab.next[m] {
		got = append(got, tab.row(m)[1])
	}
	if fmt.Sprint(got) != "[6999 13999]" {
		t.Fatalf("chain for key 6999: %v", got)
	}
}

// probeLengths fills a keyTable over keys(0) … keys(n−1) to exactly its
// 3/4 load and returns the mean number of slots a lookup examines for
// each stored key (a hit) and for keys(n) … keys(2n−1) (a miss, counting
// the empty slot that ends it).
func probeLengths(keys func(i int64) rel.Tuple) (hit, miss float64) {
	const n = 3 << 14 // 3/4 of 1<<16 slots
	cols := []int{0, 1, 2}[:len(keys(0))]
	tab := newKeyTable(len(cols), cols)
	for i := range int64(n) {
		t := keys(i)
		tab.insert(t, keyHash(t, cols), true)
	}
	if tab.used != n || len(tab.slots) != 1<<16 {
		panic(fmt.Sprintf("%d keys in %d slots: the pattern repeats a key", tab.used, len(tab.slots)))
	}
	mask := uint64(len(tab.slots) - 1)
	examined := func(t rel.Tuple) int {
		h := keyHash(t, cols)
		for i, p := tab.home(h), 1; ; i, p = (i+1)&mask, p+1 {
			if s := tab.slots[i]; s.head == 0 || s.hash == h && tab.keyEqual(s.head-1, t, cols) {
				return p
			}
		}
	}
	var hits, misses int
	for i := range int64(n) {
		hits += examined(keys(i))
		misses += examined(keys(n + i))
	}
	return float64(hits) / n, float64(misses) / n
}

// TestKeyHashProbeLengths fills a table to its 3/4 load with two- and
// three-column keys built from structured patterns: equal and negated
// columns, a counter in the high word, multiples of 2^k and int64's
// extremes. Linear probing with a random hash examines ½(1 + 1/(1−α)) ≈
// 2.5 slots per hit and ½(1 + 1/(1−α)²) ≈ 8.5 per miss at α = 3/4; the
// fold that hashes wider keys has to stay within 1.5× of both on every
// pattern.
func TestKeyHashProbeLengths(t *testing.T) {
	const alpha = 0.75
	wantHit, wantMiss := (1+1/(1-alpha))/2, (1+1/((1-alpha)*(1-alpha)))/2
	patterns := map[string]func(i int64) rel.Tuple{
		"(i,i)":                 func(i int64) rel.Tuple { return rel.Tuple{i, i} },
		"(i,-i)":                func(i int64) rel.Tuple { return rel.Tuple{i, -i} },
		"(i<<32,0)":             func(i int64) rel.Tuple { return rel.Tuple{i << 32, 0} },
		"(0,i<<32)":             func(i int64) rel.Tuple { return rel.Tuple{0, i << 32} },
		"(i,i,i)":               func(i int64) rel.Tuple { return rel.Tuple{i, i, i} },
		"(i,-i,i)":              func(i int64) rel.Tuple { return rel.Tuple{i, -i, i} },
		"(i<<32,0,0)":           func(i int64) rel.Tuple { return rel.Tuple{i << 32, 0, 0} },
		"(0,0,i<<32)":           func(i int64) rel.Tuple { return rel.Tuple{0, 0, i << 32} },
		"(MinInt64+i,MaxInt64)": func(i int64) rel.Tuple { return rel.Tuple{math.MinInt64 + i, math.MaxInt64} },
		"(MaxInt64-i,MinInt64)": func(i int64) rel.Tuple { return rel.Tuple{math.MaxInt64 - i, math.MinInt64} },
		"(MinInt64,i,MaxInt64)": func(i int64) rel.Tuple { return rel.Tuple{math.MinInt64, i, math.MaxInt64} },
		"(MaxInt64,MinInt64,-i)": func(i int64) rel.Tuple {
			return rel.Tuple{math.MaxInt64, math.MinInt64, -i}
		},
	}
	for _, k := range []int{1, 8, 16, 24, 40, 46} { // i<<k stays distinct for i < 2^17
		patterns[fmt.Sprintf("(i<<%d,0)", k)] = func(i int64) rel.Tuple { return rel.Tuple{i << k, 0} }
		patterns[fmt.Sprintf("(i<<%d,i<<%d)", k, k)] = func(i int64) rel.Tuple { return rel.Tuple{i << k, i << k} }
		patterns[fmt.Sprintf("(0,i<<%d,1)", k)] = func(i int64) rel.Tuple { return rel.Tuple{0, i << k, 1} }
	}
	for name, keys := range patterns {
		hit, miss := probeLengths(keys)
		t.Logf("%-24s %.2f slots per hit, %.2f per miss", name, hit, miss)
		if hit > 1.5*wantHit || miss > 1.5*wantMiss {
			t.Errorf("%s: %.2f slots per hit, %.2f per miss; linear probing expects %.2f and %.2f at load %.2f",
				name, hit, miss, wantHit, wantMiss, alpha)
		}
	}
}

// opExec is a one-worker exec over c with no budget, enough to compile
// and drain an operator tree outside Cluster.Run.
func opExec(c *Cluster) *exec {
	return &exec{cluster: c, metrics: NewMetrics(c.Workers(), nil), ctx: context.Background(),
		batchSize: c.BatchSize, acct: spill.NewAccountant(c.Workers(), 0, 0), held: make([]heldLedger, c.Workers())}
}

// batchOf lays rows, all of one arity, out as one batch.
func batchOf(rows ...rel.Tuple) rel.Batch {
	var b rel.Batch
	if len(rows) > 0 {
		b.Arity = len(rows[0])
	}
	for _, t := range rows {
		b.Append(t)
	}
	return b
}

// rowsOf returns b's rows as views of its values.
func rowsOf(b rel.Batch) []rel.Tuple {
	rows := make([]rel.Tuple, b.Len())
	for i := range rows {
		rows[i] = b.Row(i)
	}
	return rows
}

// drain compiles n on worker 0 and hands every batch it returns to f.
func drain(t testing.TB, e *exec, n Node, f func(rel.Batch)) {
	t.Helper()
	op, err := e.compile(n, &task{ex: e, worker: 0, exchange: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.open(); err != nil {
		t.Fatal(err)
	}
	for {
		b, err := op.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		f(b)
	}
	if err := op.close(); err != nil {
		t.Fatal(err)
	}
}

// TestOperatorBatchesAreClamped appends a row to every batch, and a value
// to every row, that a scan, a hash join over scans, a projection of that
// join and a Tributary join return. A batch is its receiver's, so no two
// share storage, and a row is clamped, so appending to it reallocates: the
// base fragments, the rows already handed out and the appended values
// themselves must all read back unchanged once the plan is drained, and
// no appended row may turn up as output.
func TestOperatorBatchesAreClamped(t *testing.T) {
	c := NewCluster(1)
	defer c.Close()
	c.BatchSize = 7
	rng := rand.New(rand.NewSource(5))
	c.Load(keyedRel(rng, "L", "l", 60, 1, []int64{1, 2, 3}))
	c.Load(keyedRel(rng, "R", "r", 40, 1, []int64{1, 2, 3}))
	for i, name := range []string{"S", "T", "U"} {
		c.Load(randGraph(name, 200, 20, int64(60+i)))
	}
	lFrag, rFrag := c.Fragment(0, "L"), c.Fragment(0, "R")
	lBefore, rBefore := lFrag.Clone(), rFrag.Clone()
	join := HashJoin{Left: Scan{Table: "L"}, Right: Scan{Table: "R"},
		LeftCols: []string{"l0"}, RightCols: []string{"r0"}}
	for _, n := range []Node{
		Scan{Table: "L"},
		join,
		Project{Input: join, Cols: []string{"l1", "r1"}},
		Tributary{Query: triangleQuery(), Order: []core.Var{"x", "y", "z"},
			Inputs: map[string]Node{"R": Scan{Table: "S"}, "S": Scan{Table: "T"}, "T": Scan{Table: "U"}}},
	} {
		var kept, copies, grownRows []rel.Tuple
		var grownBatches []rel.Batch
		var marker rel.Tuple
		drain(t, opExec(c), n, func(b rel.Batch) {
			for _, row := range rowsOf(b) {
				kept = append(kept, row)
				copies = append(copies, row.Clone())
				grownRows = append(grownRows, append(row, -77))
			}
			marker = make(rel.Tuple, b.Arity)
			for j := range marker {
				marker[j] = -88
			}
			b.Append(marker)
			grownBatches = append(grownBatches, b)
		})
		if len(kept) == 0 {
			t.Fatalf("%T returned no rows", n)
		}
		for i := range kept {
			if kept[i].Equal(marker) || !kept[i].Equal(copies[i]) || grownRows[i][len(copies[i])] != -77 {
				t.Fatalf("%T: row %d became %v (grown %v), was %v", n, i, kept[i], grownRows[i], copies[i])
			}
		}
		for i, b := range grownBatches {
			if last := b.Row(b.Len() - 1); !last.Equal(marker) {
				t.Fatalf("%T: batch %d's appended row became %v", n, i, last)
			}
		}
	}
	if !equalSequence(lFrag, lBefore) || !equalSequence(rFrag, rBefore) {
		t.Fatal("a consumer's append rewrote a base fragment")
	}
}

func equalSequence(a, b *rel.Relation) bool {
	if len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for i := range a.Tuples {
		if !a.Tuples[i].Equal(b.Tuples[i]) {
			return false
		}
	}
	return true
}

// hashJoinInputs builds two n-row sides joined on their first k columns,
// every left key matching about two right rows.
func hashJoinInputs(n, k int) (l, r *rel.Relation, node HashJoin) {
	rng := rand.New(rand.NewSource(int64(n + k)))
	l = keyedRel(rng, "L", "l", 0, k, nil)
	r = keyedRel(rng, "R", "r", 0, k, nil)
	for i := range n {
		lt, rt := make(rel.Tuple, k+1), make(rel.Tuple, k+1)
		j := rng.Intn(n / 2)
		for c := range k {
			lt[c], rt[c] = int64(i/2*(c+1)), int64(j*(c+1))
		}
		lt[k], rt[k] = int64(i), -int64(i)
		l.Append(lt)
		r.Append(rt)
	}
	lNames, _ := keyCols("l", k)
	rNames, _ := keyCols("r", k)
	return l, r, HashJoin{Left: Scan{Table: "L"}, Right: Scan{Table: "R"}, LeftCols: lNames, RightCols: rNames}
}

// TestHashJoinAllocs joins 10 000 × 10 000 rows and requires allocations
// to scale with batches and arena chunks, not rows: the budget below is a
// few per batch and per chunk, against the 20 000 input and ~20 000
// output rows.
func TestHashJoinAllocs(t *testing.T) {
	c := NewCluster(1)
	defer c.Close()
	for k := 1; k <= 2; k++ {
		l, r, node := hashJoinInputs(10000, k)
		c.Load(l)
		c.Load(r)
		rows := 0
		allocs := testing.AllocsPerRun(3, func() {
			rows = 0
			drain(t, opExec(c), node, func(b rel.Batch) { rows += b.Len() })
		})
		batches := (20000 + rows) / c.BatchSize
		if rows < 10000 || allocs > float64(10*batches+200) {
			t.Errorf("k=%d: %.0f allocations for %d output rows (%d batches)", k, allocs, rows, batches)
		}
	}
}

// BenchmarkHashJoin gives the hash-join layer its own per-input-tuple
// figures: 20 000 × 20 000 rows on a one- and a two-column key, every left
// key matching about two right rows, on one worker with no exchange.
func BenchmarkHashJoin(b *testing.B) {
	const n = 20000
	for k := 1; k <= 2; k++ {
		b.Run(fmt.Sprintf("keycols=%d", k), func(b *testing.B) {
			c := NewCluster(1)
			defer c.Close()
			l, r, node := hashJoinInputs(n, k)
			c.Load(l)
			c.Load(r)
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drain(b, opExec(c), node, func(rel.Batch) {})
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*n), "ns/tuple")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*2*n), "allocs/tuple")
		})
	}
}

// FuzzHashJoin turns bytes into two keyed relations and a batch size and
// checks the operator against ljoin.HashJoin. Rows are capped at 256, so
// a duplicate-heavy input's output stays at most 128 × 128. The first
// byte also scales key values by 2^(8·(byte/48)), so keys can be
// multiples of 2^k or sit in the high word; the seeds after the first
// three are TestKeyHashProbeLengths's patterns.
func FuzzHashJoin(f *testing.F) {
	f.Add([]byte{0x01, 1, 0, 2, 1, 1, 0, 0, 5, 1, 2, 3})
	f.Add([]byte{0x12, 0x80, 0xff, 0x7f, 0, 0x80, 0xff, 0x7f, 0, 1, 1, 1, 1})
	f.Add([]byte{0x2f, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	// (i, i) and (i, −i) on two columns, split 4.
	f.Add([]byte{0x04, 4, 1, 1, 2, 2, 3, 3, 4, 4, 2, 2, 3, 3, 5, 5, 1, 1})
	f.Add([]byte{0x07, 4, 1, 0xff, 2, 0xfe, 3, 0xfd, 4, 0xfc, 2, 0xfe, 1, 0xff, 6, 0xfa})
	// (i<<32, 0) on two columns and (i<<32, 0, 0) on three.
	f.Add([]byte{0xc4, 4, 1, 0, 2, 0, 3, 0, 4, 0, 3, 0, 2, 0, 5, 0})
	f.Add([]byte{0xc2, 3, 1, 0, 0, 2, 0, 0, 3, 0, 0, 2, 0, 0, 3, 0, 0, 7, 0, 0})
	// Multiples of 2^8 and of 2^40: (i·2^k, i·2^k) and (i·2^k, 0, i·2^k).
	f.Add([]byte{0x34, 3, 2, 2, 4, 4, 8, 8, 4, 4, 16, 16, 2, 2})
	f.Add([]byte{0xf2, 3, 1, 0, 1, 2, 0, 2, 4, 0, 4, 2, 0, 2, 1, 0, 1})
	// int64's extremes: (Min, Max), (Max, Min) and (Min, i, Max).
	f.Add([]byte{0x01, 3, 0x80, 0x7f, 0x7f, 0x80, 0x80, 0x80, 0x80, 0x7f, 0x7f, 0x80, 0x7f, 0x7f})
	f.Add([]byte{0x02, 3, 0x80, 1, 0x7f, 0x80, 2, 0x7f, 0x7f, 1, 0x80, 0x80, 1, 0x7f, 0x80, 2, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := int(data[0]%3) + 1
		batch := int(data[0]/3%8) + 1
		shift := 8 * uint(data[0]/48)
		split := int(data[1]) // rows before it go left, the rest right
		data = data[2:]
		lNames, idx := keyCols("l", k)
		rNames, _ := keyCols("r", k)
		l := rel.New("L", append(lNames, "lp")...)
		r := rel.New("R", append(rNames, "rp")...)
		for i := 0; len(data) >= k && i < 256; i++ {
			row := make(rel.Tuple, k+1)
			for c := range k {
				// One signed byte per key value; its extremes stand for
				// int64's.
				switch v := int8(data[c]); v {
				case math.MinInt8:
					row[c] = math.MinInt64
				case math.MaxInt8:
					row[c] = math.MaxInt64
				default:
					row[c] = int64(v) << shift
				}
			}
			row[k] = int64(i)
			data = data[k:]
			if i < split {
				l.Append(row)
			} else {
				r.Append(row)
			}
		}
		c := NewCluster(1)
		defer c.Close()
		c.BatchSize = batch
		c.Load(l)
		c.Load(r)
		got := rel.New("got", append(l.Schema.Clone(), "rp")...)
		drain(t, opExec(c), HashJoin{Left: Scan{Table: "L"}, Right: Scan{Table: "R"},
			LeftCols: lNames, RightCols: rNames}, func(b rel.Batch) {
			got.Tuples = append(got.Tuples, rowsOf(b)...)
		})
		if want := ljoin.HashJoin(l, r, idx, idx); !got.Equal(want) {
			t.Fatalf("k=%d batch=%d: %d rows, oracle %d", k, batch, got.Cardinality(), want.Cardinality())
		}
	})
}

// TestHashJoinHoldsOneBatch drives the hash join of
// TestJoinDeadlineEmitsNothing's hub graph (every leaf points at the hub
// and back), where one probe row over the hub key matches thousands of
// rows. The join returns after each full output batch and resumes the
// probe where it stopped, so between next calls it holds at most the batch
// it is filling: no call returns more than a batch, and none allocates
// more than a few batches' worth, where a join that queued a probe batch's
// matches would allocate them all in one call (hundreds of megabytes).
func TestHashJoinHoldsOneBatch(t *testing.T) {
	const leaves, hub = 16000, 0
	e := rel.New("E", "src", "dst")
	for i := int64(1); i <= leaves; i++ {
		e.AppendRow(i, hub)
		e.AppendRow(hub, i)
	}
	c := NewCluster(1)
	defer c.Close()
	c.Load(e)
	ex := opExec(c)
	op, err := ex.compile(HashJoin{
		Left:     Scan{Table: "E"},
		Right:    Project{Input: Scan{Table: "E"}, Cols: []string{"src", "dst"}, As: []string{"b", "c"}},
		LeftCols: []string{"dst"}, RightCols: []string{"b"},
	}, &task{ex: ex, worker: 0, exchange: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.open(); err != nil {
		t.Fatal(err)
	}
	defer op.close()
	// An output batch of three columns, the input batch it came from, and
	// the growth of both tables' arenas and slot arrays on the way.
	const limit = 4 << 20
	var before, after runtime.MemStats
	rows := 0
	for range 40 {
		runtime.ReadMemStats(&before)
		b, err := op.next()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() > c.BatchSize {
			t.Fatalf("next returned %d rows, more than a %d-row batch", b.Len(), c.BatchSize)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Fatalf("one next call allocated %d bytes, more than %d: the join queued output", got, limit)
		}
		rows += b.Len()
	}
	if rows < 20*c.BatchSize {
		t.Fatalf("40 calls returned %d rows; the hub should fill every batch", rows)
	}
}

// chanOp is an input whose batches arrive on a channel, closed at EOF: a
// stand-in for an exchange's receiver whose arrival order the test picks.
type chanOp struct {
	sch rel.Schema
	c   chan rel.Batch
}

func (o *chanOp) schema() rel.Schema { return o.sch }
func (o *chanOp) open() error        { return nil }
func (o *chanOp) close() error       { return nil }

func (o *chanOp) next() (rel.Batch, error) {
	b, ok := <-o.c
	if !ok {
		return rel.Batch{}, io.EOF
	}
	return b, nil
}

// TestHashJoinStoresTheSmallerSide feeds the hash join a big side of
// eight full batches and a small side of 1 000 rows in three arrival
// shapes: the big side in full batches while the small side trickles in
// as 8 partial batches, the small side whole before the big side sends
// anything, and the small side in partial batches after all of the big
// side. Each pull takes the side with fewer rows so far, so the join
// stores at most twice the small side plus one batch; once the small side
// ends, the big side's table is gone before the big side does; and the
// output is ljoin.HashJoin's multiset.
func TestHashJoinStoresTheSmallerSide(t *testing.T) {
	const big, small = 8 * 1024, 1000
	type arrival struct {
		side  int // 0 left, 1 right
		lo, n int // rows lo..lo+n of that side
	}
	// Every big row's key matches one small row, so the join emits a full
	// output batch after the small side has ended and the test sees the
	// tables in between.
	rng := rand.New(rand.NewSource(69))
	rows := func(name, prefix string, n int, keys func(i int) int64) *rel.Relation {
		r := rel.New(name, prefix+"0", prefix+"p")
		for i := range n {
			r.AppendRow(keys(i), rng.Int63n(1000))
		}
		return r
	}
	smallRel := func(name, prefix string) *rel.Relation {
		return rows(name, prefix, small, func(i int) int64 { return int64(i) })
	}
	bigRel := func(name, prefix string) *rel.Relation {
		return rows(name, prefix, big, func(int) int64 { return rng.Int63n(small) })
	}
	fullBatches := func(side, n int) (a []arrival) {
		for lo := 0; lo < n; lo += 1024 {
			a = append(a, arrival{side, lo, min(1024, n-lo)})
		}
		return a
	}
	partialBatches := func(side int) (a []arrival) {
		for lo := 0; lo < small; lo += small / 8 {
			a = append(a, arrival{side, lo, small / 8})
		}
		return a
	}
	interleave := func(x, y []arrival) (a []arrival) {
		for i := range max(len(x), len(y)) {
			if i < len(x) {
				a = append(a, x[i])
			}
			if i < len(y) {
				a = append(a, y[i])
			}
		}
		return a
	}
	for _, tc := range []struct {
		name        string
		left, right *rel.Relation
		smallSide   int
		order       []arrival
	}{
		{"trickle", bigRel("L", "l"), smallRel("R", "r"), 1, interleave(fullBatches(0, big), partialBatches(1))},
		{"smallfirst", smallRel("L", "l"), bigRel("R", "r"), 0, append(fullBatches(0, small), fullBatches(1, big)...)},
		{"smalllast", bigRel("L", "l"), smallRel("R", "r"), 1, append(fullBatches(0, big), partialBatches(1)...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCluster(1)
			defer c.Close()
			c.Load(tc.left)
			c.Load(tc.right)
			ex := opExec(c)
			compiled, err := ex.compile(HashJoin{Left: Scan{Table: "L"}, Right: Scan{Table: "R"},
				LeftCols: []string{"l0"}, RightCols: []string{"r0"}}, &task{ex: ex, worker: 0, exchange: -1})
			if err != nil {
				t.Fatal(err)
			}
			op := compiled.(*hashJoinOp)
			sides := [2]*rel.Relation{tc.left, tc.right}
			var in [2]*chanOp
			for s := range in {
				in[s] = &chanOp{sch: sides[s].Schema, c: make(chan rel.Batch, len(tc.order))}
				op.in[s] = in[s]
			}
			// The feeder sends in arrival order and closes a side after its
			// last batch; the channels hold every batch, as the exchange's
			// queues are unbounded, so it never waits for the join.
			last := [2]int{}
			for i, a := range tc.order {
				last[a.side] = i
			}
			go func() {
				for i, a := range tc.order {
					in[a.side].c <- batchOf(sides[a.side].Tuples[a.lo : a.lo+a.n]...)
					if i == last[a.side] {
						close(in[a.side].c)
					}
				}
			}()
			if err := op.open(); err != nil {
				t.Fatal(err)
			}
			got := rel.New("got", op.schema()...)
			sawDrop := false
			for {
				b, err := op.next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got.Tuples = append(got.Tuples, rowsOf(b)...)
				s := tc.smallSide
				if op.done[s] && !op.done[1-s] {
					if op.tabs[1-s] != nil {
						t.Fatal("the small side has ended but the big side's table is still kept")
					}
					sawDrop = true
				}
			}
			if err := op.close(); err != nil {
				t.Fatal(err)
			}
			if !sawDrop {
				t.Fatal("never saw the small side end before the big side")
			}
			if built, limit := ex.metrics.r.HashBuilt[0], int64(2*small+c.BatchSize); built > limit {
				t.Fatalf("the join stored %d rows, more than 2·%d + %d", built, small, c.BatchSize)
			}
			if probed := ex.metrics.r.HashProbed[0]; probed != big+small {
				t.Fatalf("the join probed %d rows, want %d", probed, big+small)
			}
			if want := ljoin.HashJoin(tc.left, tc.right, []int{0}, []int{0}); !got.Equal(want) {
				t.Fatalf("%d rows, oracle %d", got.Cardinality(), want.Cardinality())
			}
		})
	}
}
