package parajoin

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"parajoin/internal/dataset"
	"parajoin/internal/partstore"
	"parajoin/internal/queries"
	"parajoin/internal/stats"
)

// chain returns the n edges (0,1), (1,2), ... — a relation whose every
// prefix-distinct count is n, so the HC_TJ order cost of scanRule over it is
// exactly 2n and a plan shows which cardinality it was made from.
func chain(n int) [][2]int64 {
	edges := make([][2]int64, n)
	for i := range edges {
		edges[i] = [2]int64{int64(i), int64(i + 1)}
	}
	return edges
}

const scanRule = "P(x,y) :- E(x,y)"

// plannedCardinality plans scanRule and reads |E| back out of the plan.
func plannedCardinality(t *testing.T, q *Query) int {
	t.Helper()
	res, _, err := q.planFor(HyperCubeTributary)
	if err != nil {
		t.Error(err)
		return 0
	}
	return int(res.OrderCost / 2)
}

// TestPlanDuringLoad plans from eight goroutines while a ninth keeps
// loading a growing relation. A plan that starts after a Load returned must
// be made from at least that Load's cardinality.
func TestPlanDuringLoad(t *testing.T) {
	db := Open(4)
	defer db.Close()
	if err := db.LoadEdges("E", chain(1)); err != nil {
		t.Fatal(err)
	}
	q, err := db.Query(scanRule)
	if err != nil {
		t.Fatal(err)
	}
	var loaded atomic.Int64
	loaded.Store(1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				want := int(loaded.Load())
				if got := plannedCardinality(t, q); got < want {
					t.Errorf("plan started after Load(%d) returned was made from |E| = %d", want, got)
					return
				}
				db.Relations()
				db.Cardinality("E")
			}
		}()
	}
	for n := 2; n <= 200; n++ {
		if err := db.LoadEdges("E", chain(n)); err != nil {
			t.Error(err)
			break
		}
		loaded.Store(int64(n))
	}
	close(done)
	wg.Wait()
}

// TestWarmPlansScanNothing pins the point of the epoch-scoped statistics:
// once each of the cyclic queries has been planned at an epoch, planning
// them again — under every strategy, any number of times, all seven atoms'
// worth of Twitter — makes no pass over a relation.
func TestWarmPlansScanNothing(t *testing.T) {
	w := queries.New(dataset.GraphConfig{Edges: 4000, Nodes: 400, Skew: 1.3, Seed: 42}, dataset.DefaultKB())
	db := Open(8)
	defer db.Close()
	loadWorkload(t, db, w)
	planAll := func() {
		for _, s := range append(Strategies(), Auto) {
			for _, name := range []string{"Q1", "Q2", "Q5", "Q6"} {
				q := &Query{db: db, q: w.Query(name)}
				if _, _, err := q.planFor(s); err != nil {
					t.Fatalf("%s under %s: %v", name, s, err)
				}
			}
		}
	}
	planAll()
	warm := stats.RelationScans()
	planAll()
	planAll()
	if got := stats.RelationScans() - warm; got != 0 {
		t.Errorf("re-planning Q1, Q2, Q5, Q6 under every strategy at one epoch made %d relation scans, want 0", got)
	}
}

// TestEveryMutationPathPublishesASnapshot checks, for each way data gets
// into a DB, that the planning snapshot lands on the engine's data epoch,
// that the epoch advances, and that the next plan is made from the new
// statistics. (The wire upload is covered in
// snapshot_wire_test.go.)
func TestEveryMutationPathPublishesASnapshot(t *testing.T) {
	csvOf := func(n int) string {
		var b strings.Builder
		b.WriteString("src,dst\n")
		for _, e := range chain(n) {
			fmt.Fprintf(&b, "%d,%d\n", e[0], e[1])
		}
		return b.String()
	}
	paths := []struct {
		name string
		load func(db *DB, n int) error
	}{
		{"Load", func(db *DB, n int) error {
			rows := make([][]int64, n)
			for i, e := range chain(n) {
				rows[i] = []int64{e[0], e[1]}
			}
			return db.Load("E", []string{"src", "dst"}, rows)
		}},
		{"LoadEdges", func(db *DB, n int) error { return db.LoadEdges("E", chain(n)) }},
		{"LoadCSV", func(db *DB, n int) error {
			path := filepath.Join(t.TempDir(), "e.csv")
			if err := os.WriteFile(path, []byte(csvOf(n)), 0o644); err != nil {
				return err
			}
			return db.LoadCSV("E", path)
		}},
		{"LoadCSVReader", func(db *DB, n int) error { return db.LoadCSVReader("E", strings.NewReader(csvOf(n))) }},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			db := Open(4)
			defer db.Close()
			if err := db.LoadEdges("Other", chain(5)); err != nil {
				t.Fatal(err)
			}
			if err := p.load(db, 10); err != nil {
				t.Fatal(err)
			}
			q, err := db.Query(scanRule)
			if err != nil {
				t.Fatal(err)
			}
			if got := plannedCardinality(t, q); got != 10 {
				t.Fatalf("plan before the load: |E| = %d, want 10", got)
			}
			before := db.snap.Load()
			if err := p.load(db, 20); err != nil {
				t.Fatal(err)
			}
			after := db.snap.Load()
			if after.epoch != db.DataEpoch() || after.epoch <= before.epoch {
				t.Errorf("snapshot epoch %d after %d, engine at %d", after.epoch, before.epoch, db.DataEpoch())
			}
			if after.catalog.Get("Other") != before.catalog.Get("Other") {
				t.Error("the relation that was not loaded was re-collected")
			}
			if got := plannedCardinality(t, q); got != 20 {
				t.Errorf("first plan after the load: |E| = %d, want 20", got)
			}
		})
	}

	t.Run("OpenFromStore", func(t *testing.T) {
		src := Open(4)
		defer src.Close()
		if err := src.LoadEdges("E", chain(30)); err != nil {
			t.Fatal(err)
		}
		if err := src.LoadEdges("Other", chain(5)); err != nil {
			t.Fatal(err)
		}
		store, err := partstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := src.PersistTo(store, 8); err != nil {
			t.Fatal(err)
		}
		scans := stats.RelationScans()
		db, err := OpenFromStore(store, []string{"a", "b", "c"})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if got := stats.RelationScans() - scans; got != 2 {
			t.Errorf("restoring two relations made %d statistics scans, want one each", got)
		}
		if snap := db.snap.Load(); snap.epoch != db.DataEpoch() || snap.catalog.Cardinality("Other") != 5 {
			t.Errorf("snapshot epoch %d (engine %d), |Other| = %d", snap.epoch, db.DataEpoch(), snap.catalog.Cardinality("Other"))
		}
		q, err := db.Query(scanRule)
		if err != nil {
			t.Fatal(err)
		}
		if got := plannedCardinality(t, q); got != 30 {
			t.Errorf("plan on the restored DB was made from |E| = %d, want 30", got)
		}
	})
}
