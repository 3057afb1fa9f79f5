package parajoin

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"parajoin/internal/dataset"
	"parajoin/internal/queries"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite internal/planner/testdata/plans.golden from the current planner")

const plansGolden = "internal/planner/testdata/plans.golden"

// goldenPlans plans Q1–Q8 over the default Twitter and knowledge-base
// stand-ins under every figure configuration plus Auto and renders each
// optimizer decision as one line. OrderCost is written as its IEEE-754 bit
// pattern: the order search must stay bit-identical, not merely close.
func goldenPlans(t *testing.T) string {
	t.Helper()
	w := queries.New(dataset.DefaultTwitter(), dataset.DefaultKB())
	db := Open(64)
	defer db.Close()
	loadWorkload(t, db, w)
	strategies := []Strategy{RegularHash, RegularTributary, BroadcastHash, BroadcastTributary, HyperCubeHash, HyperCubeTributary, Auto}
	var b strings.Builder
	for _, name := range w.Names() {
		q := &Query{db: db, q: w.Query(name)}
		for _, s := range strategies {
			res, resolved, err := q.planFor(s)
			if err != nil {
				t.Fatalf("%s under %s: %v", name, s, err)
			}
			shares := "-"
			if len(res.HC.Vars) > 0 {
				shares = res.HC.String()
			}
			fmt.Fprintf(&b, "%s %s -> %s shares=%s order=%s cost=%016x joinorder=%s\n",
				name, s, resolved, strings.ReplaceAll(shares, " ", ""), joinAny(res.Order),
				math.Float64bits(res.OrderCost), joinAny(res.JoinOrder))
		}
	}
	return b.String()
}

// loadWorkload loads every relation of the paper's workload into db.
func loadWorkload(t *testing.T, db *DB, w *queries.Workload) {
	t.Helper()
	for name, r := range w.Relations {
		rows := make([][]int64, len(r.Tuples))
		for i, tup := range r.Tuples {
			rows[i] = tup
		}
		if err := db.Load(name, r.Schema, rows); err != nil {
			t.Fatal(err)
		}
	}
}

func joinAny[T any](xs []T) string {
	if len(xs) == 0 {
		return "-"
	}
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}

// TestGoldenPlans pins every optimizer decision on the paper's workload to
// the file generated before the planning-cost rewrite: resolved strategy,
// HyperCube shares, Tributary variable order and its exact cost, and the
// greedy atom order. It lives here rather than beside the golden file
// because Auto is resolved in this package. Q4 has eight variables, so it
// also covers the beam + seeded-sampling search.
func TestGoldenPlans(t *testing.T) {
	got := goldenPlans(t)
	if *updateGolden {
		if err := os.WriteFile(plansGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(plansGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("plan %d differs:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("got %d lines, golden has %d", len(gl), len(wl))
	}
}
