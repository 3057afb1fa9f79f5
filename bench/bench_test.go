package main

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose; must not be reordered
	for _, tc := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 25}, {0.9, 37}, {1, 40}, {0.25, 17.5},
	} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, tc.q, got, tc.want)
		}
	}
	if xs[0] != 40 {
		t.Error("quantile sorted its argument in place")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of odd count = %v, want 2", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestSummarizePasses(t *testing.T) {
	bad := errors.New("wrong answer")
	passes := []passSample{
		{wall: 100 * time.Millisecond, ops: []opSample{{op: 0, latency: 30 * time.Millisecond}, {op: 1, latency: 70 * time.Millisecond}}},
		{wall: 300 * time.Millisecond, ops: []opSample{{op: 0, latency: 50 * time.Millisecond}, {op: 1, latency: 250 * time.Millisecond, err: bad}}},
		{wall: 200 * time.Millisecond, ops: []opSample{{op: 0, latency: 40 * time.Millisecond}, {op: 1, latency: 90 * time.Millisecond}}},
	}
	s := summarizePasses(passes, 2)
	if s.Passes != 3 || s.Attempted != 6 || s.Failed != 1 || s.FirstFailure != bad {
		t.Fatalf("counts: %+v", s)
	}
	if s.PassP50Ms != 200 {
		t.Errorf("pass p50 = %v ms, want 200", s.PassP50Ms)
	}
	// A failed op earns no throughput: 5 correct ops over 0.6 s of pass wall.
	if want := 5 / 0.6; math.Abs(s.Throughput-want) > 1e-9 {
		t.Errorf("throughput = %v, want %v", s.Throughput, want)
	}
	// The failed run of op 1 is left out of its latency: median of 70 and 90.
	if s.OpP50Ms[0] != 40 || s.OpP50Ms[1] != 80 {
		t.Errorf("per-op p50 = %v, want [40 80]", s.OpP50Ms)
	}
}

func TestChecksum(t *testing.T) {
	rows := [][]int64{{1, 2}, {2, 1}, {3, 4}, {1, 2}}
	shuffled := [][]int64{{3, 4}, {1, 2}, {1, 2}, {2, 1}}
	if checksum(rows) != checksum(shuffled) {
		t.Error("checksum depends on row order")
	}
	for name, other := range map[string][][]int64{
		"dropped duplicate": {{1, 2}, {2, 1}, {3, 4}},
		"swapped columns":   {{2, 1}, {2, 1}, {3, 4}, {1, 2}},
		"changed value":     {{1, 2}, {2, 1}, {3, 5}, {1, 2}},
		"row split in two":  {{1}, {2}, {2, 1}, {3, 4}, {1, 2}},
	} {
		if checksum(rows) == checksum(other) {
			t.Errorf("checksum misses a %s", name)
		}
	}
}

func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	w := findWorkload("selective_serve") // the one workload with every relation and seeded arguments
	read := func(seed int64) map[string]string {
		dir := t.TempDir()
		in := generate(w, seed)
		paths, err := in.writeCSVs(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for name, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = string(data)
		}
		for _, o := range in.ops {
			out["ops"] += o.label + "|" + o.rule + "\n"
		}
		return out
	}
	a, again, b := read(7), read(7), read(8)
	if len(a) != 9 {
		t.Fatalf("selective_serve generated %d inputs, want 8 relations and the op list", len(a))
	}
	for name := range a {
		if a[name] != again[name] {
			t.Errorf("%s: same seed, different bytes", name)
		}
		if a[name] == b[name] {
			t.Errorf("%s: different seeds, same bytes", name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	u := time.Millisecond
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100 * u},
		{Name: "a", Parent: 0, Start: 10 * u, End: 40 * u},
		{Name: "b", Parent: 0, Start: 30 * u, End: 60 * u},  // overlaps a: the union is 10..60
		{Name: "c", Parent: 0, Start: 90 * u, End: 120 * u}, // sticks out: only 90..100 counts
		{Name: "a1", Parent: 1, Start: 15 * u, End: 20 * u}, // a grandchild takes from a, not from op
		{Name: "other", Parent: -1, Start: 0, End: 7 * u},   // a second root
		{Name: "inside", Parent: 2, Start: 35 * u, End: 36 * u},
	}
	got := selfTimes(spans)
	want := []time.Duration{40 * u, 25 * u, 29 * u, 30 * u, 5 * u, 7 * u, 1 * u}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", "w/0/0", -1)
	r.end(id) // must not panic: the untraced arm runs the traced arm's code
}

func TestParseProc(t *testing.T) {
	stat := "4242 (para joind) S 1 4242 4242 0 -1 4194560 1000 0 0 0 37 5 0 0 20 0 9 0 100 1000000 500 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	cpu, err := parseProcStatCPU(stat)
	if err != nil || cpu != 420*time.Millisecond {
		t.Errorf("cpu = %v, %v; want 420ms (37+5 ticks)", cpu, err)
	}
	if _, err := parseProcStatCPU("garbage"); err == nil {
		t.Error("malformed stat line accepted")
	}
	rss, err := parseProcStatusHWM("Name:\tparajoind\nVmPeak:\t  900000 kB\nVmHWM:\t   35752 kB\nVmRSS:\t   30000 kB\n")
	if err != nil || rss != 35752<<10 {
		t.Errorf("VmHWM = %v, %v; want %d", rss, err, 35752<<10)
	}
	if _, err := parseProcStatusHWM("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM accepted")
	}
}

// TestBenchmarkFile keeps BENCHMARK.json and the code in step: a metric or
// workload renamed on one side only would make the driver reject every run.
func TestBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the bench has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the bench %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the bench prints %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %s [%s], the bench %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the bench prints %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range bf.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %s [%s], the bench %s [%s]", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening(100, 110, "lower"); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("latency 100 -> 110 worsens by %v, want 0.1", got)
	}
	if got := worsening(100, 90, "higher"); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("throughput 100 -> 90 worsens by %v, want 0.1", got)
	}
	if got := worsening(100, 90, "lower"); got >= 0 {
		t.Errorf("latency 100 -> 90 reported as worse by %v", got)
	}
}

// TestSmoke drives one pass of every workload end to end against real child
// daemons and one ledger iteration in-process, checking every answer: the
// harness's own integration test.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns parajoind child processes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var all []*workload
	for i := range workloads {
		all = append(all, &workloads[i])
	}
	start := time.Now()
	if err := runSmoke(ctx, all, runConfig{seed: 3, minPasses: 1, minIters: 1, setupReps: 1}); err != nil {
		t.Fatal(err)
	}
	t.Logf("smoke took %v", time.Since(start).Round(time.Millisecond))
	left, err := filepath.Glob(filepath.Join(workDir, "run-*"))
	if err != nil || len(left) > 0 {
		t.Errorf("run directories left behind: %v %v", left, err)
	}
}
