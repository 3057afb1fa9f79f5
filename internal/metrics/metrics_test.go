package metrics

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	// Same name+labels returns the same handle.
	if r.Counter("test_total", "a counter") != c {
		t.Fatal("re-registration returned a different counter")
	}
	// Different labels are distinct series.
	if r.Counter("test_total", "a counter", Label{"k", "v"}) == c {
		t.Fatal("labeled series aliased the unlabeled one")
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 0.5, 1, 5})
	for _, v := range []float64{0.05, 0.2, 0.3, 0.7, 2, 10} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if math.Abs(h.Sum()-13.25) > 1e-9 {
		t.Fatalf("sum = %g, want 13.25", h.Sum())
	}
	if h.Max() != 10 {
		t.Fatalf("max = %g, want 10", h.Max())
	}
	p50 := h.Quantile(0.5)
	p95 := h.Quantile(0.95)
	if p50 <= 0 || p95 <= 0 {
		t.Fatalf("quantiles must be positive: p50=%g p95=%g", p50, p95)
	}
	if p50 > p95 {
		t.Fatalf("p50 %g > p95 %g", p50, p95)
	}
	if p95 > h.Max() {
		t.Fatalf("p95 %g exceeds max %g", p95, h.Max())
	}
	if q := h.Quantile(1); q != 10 {
		t.Fatalf("q=1 should return max, got %g", q)
	}
	// A single sample far below its bucket's upper bound: interpolation
	// must not overshoot the tracked max, so p50 <= p95 <= p99 <= max
	// holds for every reader of a quantile.
	lone := r.Histogram("lone_seconds", "one sample", DurationBuckets)
	lone.Observe(0.0263)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if v := lone.Quantile(q); v > lone.Max() {
			t.Fatalf("Quantile(%g) = %g exceeds max %g", q, v, lone.Max())
		}
	}
	if p50, p99 := lone.Quantile(0.5), lone.Quantile(0.99); p50 > p99 {
		t.Fatalf("single sample: p50 %g > p99 %g", p50, p99)
	}

	var empty Histogram
	if (&empty).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

// TestObserveZeroAlloc is an acceptance criterion: the hot-path Observe
// (and Counter.Add) must not allocate.
func TestObserveZeroAlloc(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("alloc_seconds", "alloc test", DurationBuckets)
	c := r.Counter("alloc_total", "alloc test")
	g := r.Gauge("alloc_gauge", "alloc test")
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(0.042)
	}); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Add(-1)
	}); n != 0 {
		t.Fatalf("Counter.Add/Gauge.Add allocate %v per call, want 0", n)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "b counter", Label{"outcome", "ok"}).Add(3)
	r.Counter("b_total", "b counter", Label{"outcome", "oom"}).Add(1)
	r.Gauge("a_gauge", "a gauge").Set(-2)
	h := r.Histogram("c_seconds", "c hist", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(2)

	var b bytes.Buffer
	r.WritePrometheus(&b)
	got := b.String()

	want := strings.Join([]string{
		"# HELP a_gauge a gauge",
		"# TYPE a_gauge gauge",
		"a_gauge -2",
		"# HELP b_total b counter",
		"# TYPE b_total counter",
		`b_total{outcome="ok"} 3`,
		`b_total{outcome="oom"} 1`,
		"# HELP c_seconds c hist",
		"# TYPE c_seconds histogram",
		`c_seconds_bucket{le="0.5"} 1`,
		`c_seconds_bucket{le="1"} 2`,
		`c_seconds_bucket{le="+Inf"} 3`,
		"c_seconds_sum 3",
		"c_seconds_count 3",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", Label{"q", `a"b\c` + "\n"}).Inc()
	var b bytes.Buffer
	r.WritePrometheus(&b)
	want := `esc_total{q="a\"b\\c\n"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped sample %q not found in:\n%s", want, b.String())
	}
}

func TestConcurrentObserveRace(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("race_seconds", "race", DurationBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(float64(i*j) * 0.001)
				r.Counter("race_total", "race").Inc()
			}
		}(i)
	}
	// Scrape concurrently with observation.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b bytes.Buffer
			r.WritePrometheus(&b)
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if r.Counter("race_total", "race").Value() != 8000 {
		t.Fatal("counter lost increments under contention")
	}
}

func TestInflightTable(t *testing.T) {
	p := NewQueryProgress(42, "T(x) :- E(x,y)")
	TrackQuery(p)
	defer UntrackQuery(p)
	p.SetStage("executing round 1/2")
	p.SetAttempt(2)
	p.AddTuples(100)
	resident := int64(50)
	detach := p.AttachMem(func() int64 { return resident })
	resident -= 10
	p.AddSpillBytes(4096)

	time.Sleep(time.Millisecond)
	snaps := InflightQueries()
	var found *QuerySnapshot
	for i := range snaps {
		if snaps[i].ID == 42 {
			found = &snaps[i]
		}
	}
	if found == nil {
		t.Fatal("query 42 not in inflight table")
	}
	if found.Stage != "executing round 1/2" || found.Attempt != 2 ||
		found.Tuples != 100 || found.MemTuples != 40 || found.SpillBytes != 4096 {
		t.Fatalf("bad snapshot: %+v", *found)
	}
	if found.Elapsed <= 0 {
		t.Fatal("elapsed should be positive")
	}
	// A detach after a later attach leaves the later source in place;
	// detaching that one reads 0 again.
	detachLater := p.AttachMem(func() int64 { return 7 })
	detach()
	if got := memTuples(42); got != 7 {
		t.Fatalf("mem_tuples after a stale detach = %d, want 7", got)
	}
	detachLater()
	if got := memTuples(42); got != 0 {
		t.Fatalf("mem_tuples after detach = %d, want 0", got)
	}
	UntrackQuery(p)
	for _, s := range InflightQueries() {
		if s.ID == 42 {
			t.Fatal("query 42 still tracked after UntrackQuery")
		}
	}
}

func TestNilProgressSafe(t *testing.T) {
	var p *QueryProgress
	p.SetStage("x")
	p.SetAttempt(1)
	p.AddTuples(1)
	p.AttachMem(func() int64 { return 1 })()
	p.AddSpillBytes(1)
	TrackQuery(nil)
	UntrackQuery(nil)
	if QueryFrom(context.Background()) != nil {
		t.Fatal("QueryFrom on bare context should be nil")
	}
	ctx := WithQuery(context.Background(), p)
	if QueryFrom(ctx) != nil {
		t.Fatal("WithQuery(nil) should not store anything")
	}
	real := NewQueryProgress(1, "r")
	if QueryFrom(WithQuery(context.Background(), real)) != real {
		t.Fatal("QueryFrom did not round-trip")
	}
}

// memTuples reads the tracked query id's mem_tuples (-1 when not tracked).
func memTuples(id int64) int64 {
	for _, s := range InflightQueries() {
		if s.ID == id {
			return s.MemTuples
		}
	}
	return -1
}
