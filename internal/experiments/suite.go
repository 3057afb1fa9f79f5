// Package experiments regenerates every table and figure of the paper's
// evaluation on the synthetic workload. Each experiment returns a
// structured result with a Render method that prints the same rows/series
// the paper reports; the root package's bench_test.go runs them and prints
// the tables.
//
// Absolute numbers differ from the paper — the substrate is an in-process
// engine on synthetic data, not Myria on a 16-machine cluster — but the
// comparisons (which configuration wins, by roughly what factor, where the
// crossovers fall) are the reproduction target.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"parajoin/internal/core"
	"parajoin/internal/dataset"
	"parajoin/internal/engine"
	"parajoin/internal/planner"
	"parajoin/internal/queries"
	"parajoin/internal/stats"
	"parajoin/internal/trace"
)

// Suite holds the workload and cluster every experiment runs against.
type Suite struct {
	// Workers is the cluster size; the paper uses 64.
	Workers int
	// Graph and KB size the synthetic datasets.
	Graph dataset.GraphConfig
	KB    dataset.KBConfig
	// MemLimitTuples is the per-worker materialization budget; runs that
	// exceed it report FAIL, reproducing the paper's out-of-memory entries.
	MemLimitTuples int64
	// Timeout bounds each single run (the paper kills queries at 1000 s).
	Timeout time.Duration
	// Seed drives order sampling.
	Seed int64
	// Tracer, when set, traces every run on the suite's clusters (set it
	// before the first Cluster call).
	Tracer *trace.Tracer

	mu         sync.Mutex
	workload   *queries.Workload
	clusters   map[int]*engine.Cluster
	planners   map[int]*planner.Planner
	sixCache   map[string]*SixConfigs
	orderCache map[string]*OrderStudy
}

// NewSuite returns a suite with laptop-scale defaults: 64 workers (the
// paper's cluster size) over the default synthetic datasets.
func NewSuite() *Suite {
	return &Suite{
		Workers:        64,
		Graph:          dataset.DefaultTwitter(),
		KB:             dataset.DefaultKB(),
		MemLimitTuples: 2_000_000,
		Timeout:        5 * time.Minute,
		Seed:           1,
	}
}

// Workload generates (once) and returns the datasets and queries.
func (s *Suite) Workload() *queries.Workload {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workloadLocked()
}

func (s *Suite) workloadLocked() *queries.Workload {
	if s.workload == nil {
		s.workload = queries.New(s.Graph, s.KB)
	}
	return s.workload
}

// Catalog returns the statistics catalog of the workload's relations.
func (s *Suite) Catalog() *stats.Catalog { return s.Workload().Catalog() }

// Cluster returns (building and loading on first use) an n-worker cluster
// with every workload relation round-robin partitioned.
func (s *Suite) Cluster(n int) *engine.Cluster {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.clusters == nil {
		s.clusters = map[int]*engine.Cluster{}
	}
	c, ok := s.clusters[n]
	if !ok {
		w := s.workloadLocked()
		c = engine.NewCluster(n)
		c.MaxLocalTuples = s.MemLimitTuples
		c.Tracer = s.Tracer
		for _, r := range w.Relations {
			c.Load(r)
		}
		s.clusters[n] = c
	}
	return c
}

// Planner returns the planner for an n-worker cluster.
func (s *Suite) Planner(n int) *planner.Planner {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.planners == nil {
		s.planners = map[int]*planner.Planner{}
	}
	p, ok := s.planners[n]
	if !ok {
		w := s.workloadLocked()
		p = &planner.Planner{
			Workers:   n,
			Catalog:   w.Catalog(),
			Relations: w.Relations,
			MaxOrders: 5040,
			Seed:      s.Seed,
		}
		s.planners[n] = p
	}
	return p
}

// Close releases all clusters.
func (s *Suite) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.clusters {
		c.Close()
	}
	s.clusters = nil
}

// RunOutcome is one query execution's measurements.
type RunOutcome struct {
	Config   planner.PlanConfig
	Failed   bool
	FailWhy  string
	Wall     time.Duration
	CPU      time.Duration
	Shuffled int64
	Results  int
	Report   *engine.Report
	Plan     *planner.Result
}

// RunConfig plans and executes one configuration of a workload query on an
// n-worker cluster. Out-of-memory and timeout become Failed outcomes (the
// paper's FAIL cells); other errors are returned.
func (s *Suite) RunConfig(queryName string, cfg planner.PlanConfig, n int) (*RunOutcome, error) {
	w := s.Workload()
	return s.RunQuery(w.Query(queryName), cfg, n)
}

// RunQuery is RunConfig for an ad-hoc query over the workload's relations
// (cmd/parajoin's -rule mode).
func (s *Suite) RunQuery(q *core.Query, cfg planner.PlanConfig, n int) (*RunOutcome, error) {
	s.Workload()
	return s.runOn(q, cfg, n, engine.RunOpts{})
}

// runOn is the execution core behind RunQuery, shared with experiments
// (Figure 10b) that re-run one configuration under per-run engine options.
func (s *Suite) runOn(q *core.Query, cfg planner.PlanConfig, n int, opts engine.RunOpts) (*RunOutcome, error) {
	p := s.Planner(n)
	c := s.Cluster(n)

	res, err := p.Plan(q, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: planning %s/%v: %w", q.Name, cfg, err)
	}
	timeout := s.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Minute
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	start := time.Now()
	result, report, err := c.RunRoundsOpts(ctx, res.Rounds, opts)
	wall := time.Since(start)

	out := &RunOutcome{Config: cfg, Wall: wall, Plan: res, Report: report}
	if report != nil {
		out.CPU = report.TotalCPU()
		out.Shuffled = report.TotalTuplesShuffled()
	}
	switch {
	case err == nil:
		// Projection queries dedup per worker only; count the global set so
		// result sizes are comparable across configurations.
		if !q.IsFull() {
			result = result.Clone().Dedup()
		}
		out.Results = result.Cardinality()
	case errors.Is(err, engine.ErrOutOfMemory):
		out.Failed, out.FailWhy = true, "OOM"
	case errors.Is(err, context.DeadlineExceeded):
		out.Failed, out.FailWhy = true, "TIMEOUT"
	default:
		return nil, fmt.Errorf("experiments: running %s/%v: %w", q.Name, cfg, err)
	}
	return out, nil
}
