// Package queries defines the paper's eight benchmark queries (Q1–Q8 of
// Section 3 and Appendix A) over the synthetic Twitter and Freebase
// stand-ins, and bundles them with the generated data as a Workload.
package queries

import (
	"fmt"
	"sort"
	"sync"

	"parajoin/internal/core"
	"parajoin/internal/dataset"
	"parajoin/internal/rel"
	"parajoin/internal/stats"
)

// Workload is the paper's evaluation workload: the two datasets plus the
// eight queries, keyed "Q1".."Q8".
type Workload struct {
	Twitter *dataset.GraphConfig
	KB      *dataset.KB
	// Relations maps base relation names (as used in query atoms) to the
	// full relations.
	Relations map[string]*rel.Relation
	// Queries maps "Q1".."Q8" to the query definitions.
	Queries map[string]*core.Query

	catalogOnce sync.Once
	catalog     *stats.Catalog
}

// Catalog returns the statistics of Relations, collected on first use and
// shared by every caller, so each relation is scanned once per workload.
func (w *Workload) Catalog() *stats.Catalog {
	w.catalogOnce.Do(func() {
		w.catalog = stats.NewCatalog()
		for _, r := range w.Relations {
			w.catalog.Add(r)
		}
	})
	return w.catalog
}

// New generates the workload. Pass dataset.DefaultTwitter() and
// dataset.DefaultKB() for the laptop-scale defaults.
func New(graph dataset.GraphConfig, kbCfg dataset.KBConfig) *Workload {
	twitter := dataset.Twitter(graph)
	kb := dataset.NewKB(kbCfg)

	w := &Workload{
		Twitter:   &graph,
		KB:        kb,
		Relations: map[string]*rel.Relation{"Twitter": twitter},
		Queries:   map[string]*core.Query{},
	}
	for _, r := range kb.Relations() {
		w.Relations[r.Name] = r
	}

	enc := kb.Dict
	w.Queries["Q1"] = core.MustParseRule(
		"Q1(x,y,z) :- Twitter(x,y), Twitter(y,z), Twitter(z,x)", nil)
	w.Queries["Q2"] = core.MustParseRule(
		"Q2(x,y,z,p) :- Twitter(x,y), Twitter(y,z), Twitter(z,p), Twitter(p,x), Twitter(x,z), Twitter(y,p)", nil)
	// Q3: all cast members of films starring both Joe Pesci and Robert De
	// Niro. Atom argument order follows the relation schemas
	// (ActorPerform(actor, perform), PerformFilm(perform, film)); the
	// paper's listing uses the same joins.
	w.Queries["Q3"] = core.MustParseRule(
		`Q3(cast) :- ObjectName(a1, "Joe Pesci"), ActorPerform(a1, p1), PerformFilm(p1, film), `+
			`ObjectName(a2, "Robert De Niro"), ActorPerform(a2, p2), PerformFilm(p2, film), `+
			`PerformFilm(p, film), ActorPerform(cast, p)`, enc)
	// Q4: pairs of actors co-starring in at least two different films — the
	// paper's cyclic 8-join query (f1 > f2 picks each unordered film pair
	// once).
	w.Queries["Q4"] = core.MustParseRule(
		"Q4(a1,a2) :- ActorPerform(a1,p1), PerformFilm(p1,f1), PerformFilm(p2,f1), ActorPerform(a2,p2), "+
			"ActorPerform(a2,p3), PerformFilm(p3,f2), PerformFilm(p4,f2), ActorPerform(a1,p4), f1>f2", nil)
	w.Queries["Q5"] = core.MustParseRule(
		"Q5(x,y,z,p) :- Twitter(x,y), Twitter(y,z), Twitter(z,p), Twitter(p,x)", nil)
	w.Queries["Q6"] = core.MustParseRule(
		"Q6(x,y,z,p) :- Twitter(x,y), Twitter(y,z), Twitter(z,p), Twitter(p,x), Twitter(x,z)", nil)
	w.Queries["Q7"] = core.MustParseRule(
		`Q7(a) :- ObjectName(aw, "The Academy Awards"), HonorAward(h, aw), HonorActor(h, a), HonorYear(h, y), y>=1990, y<2000`, enc)
	w.Queries["Q8"] = core.MustParseRule(
		"Q8(a,d) :- ActorPerform(a,p1), ActorPerform(a,p2), PerformFilm(p1,f1), PerformFilm(p2,f2), "+
			"DirectorFilm(d,f1), DirectorFilm(d,f2), f1>f2", nil)
	return w
}

// Names returns the query names in order Q1..Q8.
func (w *Workload) Names() []string {
	names := make([]string, 0, len(w.Queries))
	for n := range w.Queries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Query returns the named query or panics — workload names are static.
func (w *Workload) Query(name string) *core.Query {
	q, ok := w.Queries[name]
	if !ok {
		panic(fmt.Sprintf("queries: unknown query %q", name))
	}
	return q
}

// AtomRelations maps a query's atom aliases to their base relations, the
// binding the local evaluators take.
func (w *Workload) AtomRelations(q *core.Query) (map[string]*rel.Relation, error) {
	m := make(map[string]*rel.Relation, len(q.Atoms))
	for _, a := range q.Atoms {
		r := w.Relations[a.Relation]
		if r == nil {
			return nil, fmt.Errorf("queries: query %s uses unknown relation %q", q.Name, a.Relation)
		}
		m[a.Alias] = r
	}
	return m, nil
}

// InputSize returns the total number of input tuples a query touches,
// counting a base relation once per atom that joins it (the "Input size"
// column of the paper's Table 6).
func (w *Workload) InputSize(q *core.Query) int {
	total := 0
	for _, a := range q.Atoms {
		if r := w.Relations[a.Relation]; r != nil {
			total += r.Cardinality()
		}
	}
	return total
}
