package planner

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"parajoin/internal/core"
	"parajoin/internal/ljoin"
	"parajoin/internal/rel"
	"parajoin/internal/stats"
)

// randomQuery generates a connected conjunctive query: 2–5 binary atoms
// over ≤3 base relations and ≤5 variables, occasionally with a projection
// head or a variable-variable filter.
func randomQuery(rng *rand.Rand, id int) *core.Query {
	vars := []core.Var{"a", "b", "c", "d", "e"}[:2+rng.Intn(4)]
	nAtoms := 2 + rng.Intn(4)
	relNames := []string{"R0", "R1", "R2"}

	atoms := make([]core.Atom, 0, nAtoms)
	used := map[core.Var]bool{vars[0]: true, vars[1]: true}
	atoms = append(atoms, core.NewAtom(relNames[rng.Intn(3)], core.V(string(vars[0])), core.V(string(vars[1]))))
	for len(atoms) < nAtoms {
		// Keep the query connected: one variable from the used set, one
		// arbitrary.
		usedList := make([]core.Var, 0, len(used))
		for v := range used {
			usedList = append(usedList, v)
		}
		v1 := usedList[rng.Intn(len(usedList))]
		v2 := vars[rng.Intn(len(vars))]
		if v1 == v2 {
			continue
		}
		used[v2] = true
		atoms = append(atoms, core.NewAtom(relNames[rng.Intn(3)], core.V(string(v1)), core.V(string(v2))))
	}

	var head []core.Var
	if rng.Intn(3) == 0 { // projection query
		for v := range used {
			if rng.Intn(2) == 0 {
				head = append(head, v)
			}
		}
		if len(head) == 0 {
			head = nil
		}
	}
	var filters []core.Filter
	if rng.Intn(3) == 0 && len(used) >= 2 {
		usedList := make([]core.Var, 0, len(used))
		for v := range used {
			usedList = append(usedList, v)
		}
		filters = append(filters, core.Filter{
			Left: usedList[0], Op: core.Lt, Right: core.V(string(usedList[len(usedList)-1])),
		})
	}
	q, err := core.NewQuery(fmt.Sprintf("Rand%d", id), head, atoms, filters...)
	if err != nil {
		panic(err)
	}
	return q
}

// TestRandomQueriesAllConfigs fuzzes the whole stack: random connected
// queries, random data, every plan configuration, all checked against the
// naive oracle.
func TestRandomQueriesAllConfigs(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		rels := []*rel.Relation{
			randGraph("R0", 80+rng.Intn(120), 8+rng.Intn(12), rng.Int63()),
			randGraph("R1", 80+rng.Intn(120), 8+rng.Intn(12), rng.Int63()),
			randGraph("R2", 80+rng.Intn(120), 8+rng.Intn(12), rng.Int63()),
		}
		q := randomQuery(rng, trial)

		db := newTestDB(t, 1+rng.Intn(5), rels...)
		aliasRels := map[string]*rel.Relation{}
		relByName := map[string]*rel.Relation{}
		for _, r := range rels {
			relByName[r.Name] = r
		}
		for _, a := range q.Atoms {
			aliasRels[a.Alias] = relByName[a.Relation]
		}
		want, err := ljoin.NaiveEvaluate(q, aliasRels)
		if err != nil {
			t.Fatalf("trial %d (%s): oracle: %v", trial, q, err)
		}

		configs := append([]PlanConfig(nil), Configs...)
		if core.IsAcyclic(q) {
			configs = append(configs, SemiJoin)
		}
		for _, cfg := range configs {
			res, err := db.planner.Plan(q, cfg)
			if err != nil {
				t.Fatalf("trial %d (%s) %v: planning: %v", trial, q, cfg, err)
			}
			got, _, err := db.cluster.RunRounds(context.Background(), res.Rounds)
			if err != nil {
				t.Fatalf("trial %d (%s) %v: running: %v", trial, q, cfg, err)
			}
			got.Dedup()
			if !got.Equal(want) {
				t.Errorf("trial %d (%s) %v: got %d tuples, oracle %d",
					trial, q, cfg, got.Cardinality(), want.Cardinality())
			}
		}
	}
}

// TestRandomQueriesStatsSanity checks the catalog agrees with the data the
// random trials run on (guards the generator itself).
func TestRandomQueriesStatsSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	r := randGraph("R0", 150, 10, rng.Int63())
	c := stats.NewCatalog(r)
	if c.Cardinality("R0") != r.Cardinality() {
		t.Fatal("catalog cardinality mismatch")
	}
}
