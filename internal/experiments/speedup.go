package experiments

import (
	"fmt"
	"io"
	"time"

	"parajoin/internal/engine"
	"parajoin/internal/planner"
)

// SpeedupStudy is the intra-worker parallelism sweep ("Figure 10b"): the
// same query under HC_TJ at sub-join parallelism K ∈ {1, 2, 4, ...} on one
// cluster. Wall-clock speedup over K=1 is the headline on a multi-core
// host; on a host with fewer free cores than K the deterministic counters
// (sub-join tasks, claim balance, identical result counts) still verify
// that the range partitioning engaged and stayed correct.
type SpeedupStudy struct {
	Workers int
	Rows    []SpeedupRow
}

// SpeedupRow is one (query, K) measurement.
type SpeedupRow struct {
	Query string
	K     int
	Wall  time.Duration
	CPU   time.Duration
	// Results is the answer count — identical across K by construction
	// (the determinism tests check the rows byte-for-byte; the study
	// checks the counts as a cheap cross-run invariant).
	Results int
	// JoinTasks counts executed sub-ranges (0 when the join ran serially);
	// StealMax is the most sub-ranges one pool goroutine claimed.
	JoinTasks int64
	StealMax  int64
	// Speedup is wall(K=1) / wall(K).
	Speedup float64
}

// Speedup runs each query under HC_TJ for every K on an n-worker cluster.
// K=1 (the serial baseline) is prepended when missing.
func (s *Suite) Speedup(n int, ks []int, queryNames ...string) (*SpeedupStudy, error) {
	if len(ks) == 0 || ks[0] != 1 {
		ks = append([]int{1}, ks...)
	}
	if len(queryNames) == 0 {
		queryNames = []string{"Q1", "Q2"}
	}
	w := s.Workload()
	study := &SpeedupStudy{Workers: n}
	for _, qn := range queryNames {
		q := w.Query(qn)
		var base time.Duration
		var baseResults int
		for i, k := range ks {
			opts := engine.RunOpts{Parallelism: k}
			if k <= 1 {
				opts.Parallelism = -1 // force the serial baseline
			}
			out, err := s.runOn(q, planner.HCTJ, n, opts)
			if err != nil {
				return nil, err
			}
			if out.Failed {
				return nil, fmt.Errorf("experiments: %s at K=%d failed: %s", qn, k, out.FailWhy)
			}
			row := SpeedupRow{Query: qn, K: k, Wall: out.Wall, CPU: out.CPU, Results: out.Results}
			if out.Report != nil {
				row.JoinTasks = out.Report.JoinTasks
				row.StealMax = out.Report.JoinStealMax
			}
			if i == 0 {
				base, baseResults = out.Wall, out.Results
			} else if out.Results != baseResults {
				return nil, fmt.Errorf("experiments: %s at K=%d produced %d results, serial produced %d",
					qn, k, out.Results, baseResults)
			}
			if out.Wall > 0 {
				row.Speedup = float64(base) / float64(out.Wall)
			}
			study.Rows = append(study.Rows, row)
		}
	}
	return study, nil
}

// Render prints the sweep as the Figure-10b table.
func (st *SpeedupStudy) Render(w io.Writer) {
	fmt.Fprintf(w, "intra-worker parallel Tributary join on %d workers (speedup = wall vs K=1)\n", st.Workers)
	fmt.Fprintf(w, "%6s %4s %12s %12s %10s %10s %10s %9s\n",
		"query", "K", "wall", "cpu", "results", "subjoins", "steal max", "speedup")
	for _, r := range st.Rows {
		fmt.Fprintf(w, "%6s %4d %12v %12v %10d %10d %10d %9.2f\n",
			r.Query, r.K, r.Wall.Round(time.Microsecond), r.CPU.Round(time.Microsecond),
			r.Results, r.JoinTasks, r.StealMax, r.Speedup)
	}
}
