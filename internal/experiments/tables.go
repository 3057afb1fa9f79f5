package experiments

import (
	"fmt"
	"io"
	"time"

	"parajoin/internal/engine"
	"parajoin/internal/planner"
	"parajoin/internal/rel"
)

// RelationSizes reproduces the relation-cardinality tables: Table 1 (the
// Freebase relations behind Q3/Q4) and Table 8 (the Q7 relations after
// selection pushdown).
type RelationSizes struct {
	Title string
	Rows  []RelationSizeRow
}

// RelationSizeRow is one relation's schema and cardinality.
type RelationSizeRow struct {
	Name   string
	Schema rel.Schema
	Tuples int
}

// Table1 reports the knowledge-base relations used by Q3 and Q4.
func (s *Suite) Table1() *RelationSizes {
	w := s.Workload()
	out := &RelationSizes{Title: "Table 1: Relations from the knowledge base"}
	for _, name := range []string{"ObjectName", "ActorPerform", "PerformFilm", "DirectorFilm"} {
		r := w.Relations[name]
		out.Rows = append(out.Rows, RelationSizeRow{Name: name, Schema: r.Schema, Tuples: r.Cardinality()})
	}
	return out
}

// Table8 reports the Q7 relations with the paper's selections pushed down:
// σ_name(ObjectName), HonorAward, HonorActor, σ_year(HonorYear).
func (s *Suite) Table8() *RelationSizes {
	w := s.Workload()
	kb := w.KB
	out := &RelationSizes{Title: "Table 8: Relations joined in Q7 (after selection pushdown)"}

	code, _ := kb.Dict.Lookup("The Academy Awards")
	selName := kb.ObjectName.Select("σ_name(ObjectName)", func(t rel.Tuple) bool { return t[1] == code })
	selYear := kb.HonorYear.Select("σ_year(HonorYear)", func(t rel.Tuple) bool { return t[1] >= 1990 && t[1] < 2000 })
	for _, r := range []*rel.Relation{selName, kb.HonorAward, kb.HonorActor, selYear} {
		out.Rows = append(out.Rows, RelationSizeRow{Name: r.Name, Schema: r.Schema, Tuples: r.Cardinality()})
	}
	return out
}

// Render prints the table.
func (t *RelationSizes) Render(w io.Writer) {
	fmt.Fprintln(w, t.Title)
	fmt.Fprintf(w, "%-22s %-28s %12s\n", "relation", "schema", "tuples")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-22s %-28v %12d\n", r.Name, []string(r.Schema), r.Tuples)
	}
}

// LoadBalance reproduces the per-shuffle load-balance tables for Q1
// (Tables 2, 3 and 4): tuples sent plus producer and consumer skew for
// every exchange of one configuration.
type LoadBalance struct {
	Title  string
	Config planner.PlanConfig
	Rows   []engine.ExchangeReport
	Total  int64
}

// LoadBalanceTable runs one configuration of a query and extracts its
// exchange report. Table 2 is ("Q1", RSHJ), Table 3 ("Q1", HCTJ), Table 4
// ("Q1", BRHJ).
func (s *Suite) LoadBalanceTable(queryName string, cfg planner.PlanConfig) (*LoadBalance, error) {
	sc, err := s.SixConfigs(queryName)
	if err != nil {
		return nil, err
	}
	out := sc.Row(cfg)
	lb := &LoadBalance{
		Title:  fmt.Sprintf("Load balance of %s shuffles in %s", cfg, queryName),
		Config: cfg,
	}
	if out.Report != nil {
		lb.Rows = out.Report.Exchanges
		lb.Total = out.Report.TotalTuplesShuffled()
	}
	return lb, nil
}

// Table2 is Q1 under regular shuffles, Table3 under HyperCube shuffles,
// Table4 under broadcast.
func (s *Suite) Table2() (*LoadBalance, error) { return s.LoadBalanceTable("Q1", planner.RSHJ) }

// Table3 reports Q1's HyperCube shuffles.
func (s *Suite) Table3() (*LoadBalance, error) { return s.LoadBalanceTable("Q1", planner.HCTJ) }

// Table4 reports Q1's broadcast shuffles.
func (s *Suite) Table4() (*LoadBalance, error) { return s.LoadBalanceTable("Q1", planner.BRHJ) }

// Render prints the table.
func (lb *LoadBalance) Render(w io.Writer) {
	fmt.Fprintln(w, lb.Title)
	fmt.Fprintf(w, "%-34s %14s %14s %14s\n", "shuffle", "tuples sent", "producer skew", "consumer skew")
	for _, r := range lb.Rows {
		fmt.Fprintf(w, "%-34s %14d %14.2f %14.2f\n", r.Name, r.TuplesSent(), r.ProducerSkew(), r.ConsumerSkew())
	}
	fmt.Fprintf(w, "%-34s %14d\n", "Total", lb.Total)
}

// OperatorTime reproduces Table 5: how much of the local-join phase each
// operator consumes, contrasting BR_TJ (dominated by sorting) with BR_HJ.
type OperatorTime struct {
	Query string
	Rows  []OperatorTimeRow
}

// OperatorTimeRow is one configuration's local-phase breakdown.
type OperatorTimeRow struct {
	Config planner.PlanConfig
	Phase  string
	Time   time.Duration
	// Share is the phase's fraction of the configuration's total busy time.
	Share float64
}

// Table5 measures the sort-vs-join split of the broadcast plans on Q1.
func (s *Suite) Table5() (*OperatorTime, error) {
	out := &OperatorTime{Query: "Q1"}
	sc, err := s.SixConfigs("Q1")
	if err != nil {
		return nil, err
	}
	for _, cfg := range []planner.PlanConfig{planner.BRTJ, planner.BRHJ} {
		run := sc.Row(cfg)
		if run.Failed || run.Report == nil {
			continue
		}
		var sort, join, hash time.Duration
		for w := range run.Report.SortTime {
			sort += run.Report.SortTime[w]
			join += run.Report.JoinTime[w]
			hash += run.Report.HashTime[w]
		}
		busy := run.Report.TotalBusy()
		share := func(d time.Duration) float64 {
			if busy == 0 {
				return 0
			}
			return float64(d) / float64(busy)
		}
		if cfg == planner.BRTJ {
			out.Rows = append(out.Rows,
				OperatorTimeRow{cfg, "all sorts", sort, share(sort)},
				OperatorTimeRow{cfg, "TJ(R,S,T)", join, share(join)},
			)
		} else {
			other := busy - hash
			out.Rows = append(out.Rows,
				OperatorTimeRow{cfg, "hash joins", hash, share(hash)},
				OperatorTimeRow{cfg, "everything else", other, share(other)},
			)
		}
	}
	return out, nil
}

// Render prints the table.
func (t *OperatorTime) Render(w io.Writer) {
	fmt.Fprintf(w, "Operator time in the local join phase of %s (Table 5)\n", t.Query)
	fmt.Fprintf(w, "%-8s %-18s %14s %8s\n", "config", "phase", "cpu time", "share")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-8s %-18s %14s %7.0f%%\n", r.Config, r.Phase, r.Time.Round(time.Microsecond), 100*r.Share)
	}
}
