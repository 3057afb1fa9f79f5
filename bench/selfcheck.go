package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of ../BENCHMARK.json the bench itself reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// worsening is how much worse b is than a, as a share of a: positive when
// the metric moved against its direction.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSelfcheck measures the same commit twice and holds the difference
// against the bounds in BENCHMARK.json. A benchmark that cannot agree with
// itself within a bound cannot enforce that bound on anyone else.
func runSelfcheck(ctx context.Context, ws []*workload, cfg runConfig) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	bin, err := buildDaemon(ctx)
	if err != nil {
		return err
	}
	prepared := map[string]*inputs{}
	for _, w := range ws {
		if prepared[w.name], err = prepare(ctx, w, cfg.seed); err != nil {
			return err
		}
	}
	sets := [2]map[string]*servedResult{{}, {}}
	failed := 0
	for i := range sets {
		for _, w := range ws {
			res, err := runServed(ctx, w, prepared[w.name], cfg, bin)
			if err != nil {
				return err
			}
			fmt.Printf("set %d: ", i+1)
			res.print()
			sets[i][w.name] = res
			failed += res.failed()
		}
	}

	fmt.Printf("\n%-16s %-16s %12s %12s %9s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	over := 0
	for _, w := range ws {
		for _, m := range bf.EndToEnd {
			a, b := sets[0][w.name].metric(m.Name), sets[1][w.name].metric(m.Name)
			// Neither set is the baseline: whichever order makes the second
			// look worse is the one a later comparison could hit.
			diff := max(worsening(a, b, m.Better), worsening(b, a, m.Better))
			verdict := ""
			if diff > m.Bound {
				verdict = "  OVER"
				over++
			}
			fmt.Printf("%-16s %-16s %12.3f %12.3f %8.1f%% %6.0f%%%s\n", w.name, m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
	}
	switch {
	case failed > 0:
		return fmt.Errorf("%d %w", failed, errOpsFailed)
	case over > 0:
		return fmt.Errorf("selfcheck: %d metric(s) differ between two sets of the same commit by more than their bound", over)
	}
	return nil
}
