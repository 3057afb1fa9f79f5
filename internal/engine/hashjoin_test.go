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

// opExec is a one-worker exec over c with no budget, enough to compile
// and drain an operator tree outside Cluster.Run.
func opExec(c *Cluster) *exec {
	return &exec{cluster: c, metrics: NewMetrics(c.Workers()), ctx: context.Background(),
		batchSize: c.BatchSize, acct: spill.NewAccountant(c.Workers(), 0, 0)}
}

// drain compiles n on worker 0 and hands every batch it returns to f.
func drain(t testing.TB, e *exec, n Node, f func([]rel.Tuple)) {
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
// join and a Tributary join return. Each append must reallocate: the base
// fragments, the rows already handed out and the appended values
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
	marker := rel.Tuple{-88}
	for _, n := range []Node{
		Scan{Table: "L"},
		join,
		Project{Input: join, Cols: []string{"l1", "r1"}},
		Tributary{Query: triangleQuery(), Order: []core.Var{"x", "y", "z"},
			Inputs: map[string]Node{"R": Scan{Table: "S"}, "S": Scan{Table: "T"}, "T": Scan{Table: "U"}}},
	} {
		var kept, copies, grownRows []rel.Tuple
		var grownBatches [][]rel.Tuple
		drain(t, opExec(c), n, func(b []rel.Tuple) {
			for _, row := range b {
				kept = append(kept, row)
				copies = append(copies, row.Clone())
				grownRows = append(grownRows, append(row, -77))
			}
			grownBatches = append(grownBatches, append(b, marker))
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
			if !b[len(b)-1].Equal(marker) {
				t.Fatalf("%T: batch %d's appended row became %v", n, i, b[len(b)-1])
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
			drain(t, opExec(c), node, func(b []rel.Tuple) { rows += len(b) })
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
				drain(b, opExec(c), node, func([]rel.Tuple) {})
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
// a duplicate-heavy input's output stays at most 128 × 128.
func FuzzHashJoin(f *testing.F) {
	f.Add([]byte{0x01, 1, 0, 2, 1, 1, 0, 0, 5, 1, 2, 3})
	f.Add([]byte{0x12, 0x80, 0xff, 0x7f, 0, 0x80, 0xff, 0x7f, 0, 1, 1, 1, 1})
	f.Add([]byte{0x2f, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := int(data[0]%3) + 1
		batch := int(data[0]/3%8) + 1
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
					row[c] = int64(v)
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
			LeftCols: lNames, RightCols: rNames}, func(b []rel.Tuple) {
			got.Tuples = append(got.Tuples, b...)
		})
		if want := ljoin.HashJoin(l, r, idx, idx); !got.Equal(want) {
			t.Fatalf("k=%d batch=%d: %d rows, oracle %d", k, batch, got.Cardinality(), want.Cardinality())
		}
	})
}
