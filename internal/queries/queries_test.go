package queries

import (
	"context"
	"testing"

	"parajoin/internal/core"
	"parajoin/internal/dataset"
	"parajoin/internal/engine"
	"parajoin/internal/ljoin"
	"parajoin/internal/planner"
)

// tinyWorkload is small enough for the naive oracle.
func tinyWorkload() *Workload {
	return New(
		dataset.GraphConfig{Edges: 300, Nodes: 60, Skew: 1.3, Seed: 5},
		dataset.KBConfig{Actors: 60, Films: 40, Performances: 220, Directors: 12, Honors: 60, Awards: 4, Seed: 5},
	)
}

func TestWorkloadShape(t *testing.T) {
	w := tinyWorkload()
	names := w.Names()
	if len(names) != 8 || names[0] != "Q1" || names[7] != "Q8" {
		t.Fatalf("Names = %v", names)
	}
	// Table/figure facts from the paper: tables joined and cyclicity.
	wantAtoms := map[string]int{"Q1": 3, "Q2": 6, "Q3": 8, "Q4": 8, "Q5": 4, "Q6": 5, "Q7": 4, "Q8": 6}
	wantCyclic := map[string]bool{"Q1": true, "Q2": true, "Q3": false, "Q4": true, "Q5": true, "Q6": true, "Q7": false, "Q8": true}
	for name, q := range w.Queries {
		if len(q.Atoms) != wantAtoms[name] {
			t.Errorf("%s has %d atoms, want %d", name, len(q.Atoms), wantAtoms[name])
		}
		if core.IsAcyclic(q) == wantCyclic[name] {
			t.Errorf("%s cyclic = %v, want %v", name, !core.IsAcyclic(q), wantCyclic[name])
		}
	}
	if w.InputSize(w.Query("Q1")) != 3*w.Relations["Twitter"].Cardinality() {
		t.Error("InputSize must count a self-joined relation once per atom")
	}
}

// Every query must produce identical results through the naive oracle, a
// single-machine Tributary join, and a distributed HC_TJ plan.
func TestAllQueriesConsistentAcrossEvaluators(t *testing.T) {
	w := tinyWorkload()
	cluster := engine.NewCluster(4)
	defer cluster.Close()
	var all []*core.Query
	for _, name := range w.Names() {
		all = append(all, w.Query(name))
	}
	for _, r := range w.Relations {
		cluster.Load(r)
	}
	p := &planner.Planner{Workers: 4, Catalog: w.Catalog(), Relations: w.Relations, MaxOrders: 200, Seed: 1}

	for _, q := range all {
		aliasRels, err := w.AtomRelations(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ljoin.NaiveEvaluate(q, aliasRels)
		if err != nil {
			t.Fatal(err)
		}
		// Single-machine Tributary join.
		tj, _, err := ljoin.Evaluate(q, aliasRels, q.Vars(), ljoin.SeekBinary)
		if err != nil {
			t.Fatalf("%s: TJ: %v", q.Name, err)
		}
		tj.Dedup()
		if !tj.Equal(want) {
			t.Errorf("%s: TJ %d tuples, naive %d", q.Name, tj.Cardinality(), want.Cardinality())
		}
		// Distributed HC_TJ.
		res, err := p.Plan(q, planner.HCTJ)
		if err != nil {
			t.Fatalf("%s: planning HC_TJ: %v", q.Name, err)
		}
		got, _, err := cluster.RunRounds(context.Background(), res.Rounds)
		if err != nil {
			t.Fatalf("%s: running HC_TJ: %v", q.Name, err)
		}
		got.Dedup()
		if !got.Equal(want) {
			t.Errorf("%s: HC_TJ %d tuples, naive %d", q.Name, got.Cardinality(), want.Cardinality())
		}
	}
}

func TestQ3HasAnswers(t *testing.T) {
	w := tinyWorkload()
	q := w.Query("Q3")
	aliasRels, _ := w.AtomRelations(q)
	got, _, err := ljoin.Evaluate(q, aliasRels, q.Vars(), ljoin.SeekBinary)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() == 0 {
		t.Fatal("Q3 must have a non-empty answer (the famous pair co-stars)")
	}
}

func TestQ7HasAnswers(t *testing.T) {
	w := tinyWorkload()
	q := w.Query("Q7")
	aliasRels, _ := w.AtomRelations(q)
	got, _, err := ljoin.Evaluate(q, aliasRels, q.Vars(), ljoin.SeekBinary)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() == 0 {
		t.Fatal("Q7 must find Academy Award winners in the 90s")
	}
}

func TestAtomRelationsUnknown(t *testing.T) {
	w := tinyWorkload()
	q := core.MustParseRule("Q(x) :- Nope(x)", nil)
	if _, err := w.AtomRelations(q); err == nil {
		t.Fatal("unknown relation should error")
	}
}
