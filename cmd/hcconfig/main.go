// Command hcconfig inspects the HyperCube share-configuration algorithms
// for a query: the fractional LP optimum, the paper's Algorithm 1, the
// round-down baseline, and the random-cell baseline, with their expected
// per-worker workloads.
//
//	hcconfig -query Q2 -workers 63
//	hcconfig -rule 'T(x,y,z) :- A(x,y), B(y,z), C(z,x)' -card A=1000,B=1000,C=1000 -workers 15
//
// With -nodes-after the tool previews an elastic resize: it re-derives the
// share grid for the new cluster size through the same code path the
// coordinator runs on a membership change, printing both grids with their
// expected loads and shuffle volumes.
//
//	hcconfig -query Q1 -workers 64 -nodes-after 48
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"parajoin/internal/cluster"
	"parajoin/internal/core"
	"parajoin/internal/dataset"
	"parajoin/internal/queries"
	"parajoin/internal/shares"
	"parajoin/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hcconfig: ")
	var (
		queryName = flag.String("query", "Q1", "workload query Q1..Q8")
		rule      = flag.String("rule", "", "explicit datalog rule (overrides -query)")
		cards     = flag.String("card", "", "relation cardinalities for -rule: A=1000,B=500")
		workers   = flag.Int("workers", 64, "cluster size N")
		cells     = flag.Int("cells", 4096, "virtual cells for the random baseline")
		after     = flag.Int("nodes-after", 0, "preview an elastic resize: re-derive shares for this cluster size")
	)
	flag.Parse()

	var q *core.Query
	var catalog *stats.Catalog
	if *rule != "" {
		var err error
		q, err = core.ParseRule(*rule, nil)
		if err != nil {
			log.Fatal(err)
		}
		catalog = syntheticCatalog(q, *cards)
	} else {
		w := queries.New(dataset.DefaultTwitter(), dataset.DefaultKB())
		q = w.Query(*queryName)
		catalog = w.Catalog()
	}
	fmt.Printf("query: %s\njoin variables: %v\nworkers: %d\n\n", q, q.JoinVars(), *workers)

	frac, err := shares.SolveFractional(q, catalog, *workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fractional LP optimum: exponents %v, per-cell load %.1f tuples\n\n",
		round(frac.Exponents), frac.TotalLoad)

	opt, err := shares.Optimize(q, catalog, *workers)
	if err != nil {
		log.Fatal(err)
	}
	printConfig(q, catalog, "Algorithm 1 (ours)", opt, *workers)

	rd, err := shares.RoundDown(q, catalog, *workers)
	if err != nil {
		log.Fatal(err)
	}
	printConfig(q, catalog, "round down", rd, *workers)

	alloc, err := shares.RandomCells(q, catalog, *workers, *cells, 1)
	if err != nil {
		log.Fatal(err)
	}
	wl, err := alloc.Workload(q, catalog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %d cells on %d workers: max per-worker load %.1f (%.2f× LP optimum)\n",
		fmt.Sprintf("random (%d cells)", *cells), alloc.Config.Cells(), *workers, wl, wl/frac.TotalLoad)

	if *after > 0 {
		rz, err := cluster.ReDerive(q, catalog, *workers, *after)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nresize %d -> %d workers (the coordinator's re-derivation on a membership change):\n  %s\n",
			*workers, *after, rz)
	}
}

func printConfig(q *core.Query, catalog *stats.Catalog, name string, cfg shares.Config, n int) {
	load, err := shares.ExpectedLoad(q, catalog, cfg)
	if err != nil {
		log.Fatal(err)
	}
	ratio, err := shares.WorkloadRatio(q, catalog, cfg, n)
	if err != nil {
		log.Fatal(err)
	}
	vol, err := shares.TuplesShuffled(q, catalog, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %s = %d cells, per-worker load %.1f (%.2f× LP optimum), %d tuples shuffled\n",
		name, cfg, cfg.Cells(), load, ratio, int64(vol))
}

func round(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int(x*1000+0.5)) / 1000
	}
	return out
}

// syntheticCatalog describes relations with the requested cardinalities so
// the share optimizers can run on an ad-hoc rule. Nothing is materialized
// or scanned: every column is taken to be a key, so the statistics are the
// cardinality itself.
func syntheticCatalog(q *core.Query, cards string) *stats.Catalog {
	want := map[string]int{}
	for _, kv := range strings.Split(cards, ",") {
		if kv = strings.TrimSpace(kv); kv == "" {
			continue
		}
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			log.Fatalf("bad -card entry %q", kv)
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			log.Fatalf("bad cardinality in %q: %v", kv, err)
		}
		want[parts[0]] = n
	}
	catalog := stats.NewCatalog()
	for _, a := range q.Atoms {
		n := want[a.Relation]
		if n == 0 {
			n = 1000
		}
		distinct := make([]int, len(a.Terms))
		for i := range distinct {
			distinct[i] = n
		}
		catalog.AddStats(stats.Precomputed(a.Relation, n, distinct))
	}
	return catalog
}
