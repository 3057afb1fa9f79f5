// Package metrics is a dependency-free, lock-sharded metrics registry with
// a Prometheus text-format exposition. It provides the three metric shapes
// production monitoring needs — monotone counters, gauges, and fixed-bucket
// histograms — behind handles whose hot-path operations (Add, Set, Observe)
// are a handful of atomic instructions and allocate nothing.
//
// Registration (Counter/Gauge/Histogram on a Registry) is the slow path: a
// sharded map lookup under a lock, intended to run once per metric at
// package init or server construction. Callers hold the returned handle and
// hammer it from any number of goroutines.
//
// The Default registry is process-wide; internal/debug mounts it at
// /metrics.
package metrics

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a metric. Metrics with the
// same family name but different labels are distinct series reported under
// one # TYPE header.
type Label struct {
	Name, Value string
}

// DurationBuckets are the default latency buckets, in seconds: roughly
// exponential from 500µs to 2 minutes — wide enough to hold both a cached
// point lookup and a spilling 64-worker join without saturating either end.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// SizeBuckets are the default size buckets (bytes or tuples): powers of
// four from 64 to 256Mi.
var SizeBuckets = []float64{
	64, 256, 1024, 4096, 16384, 65536, 262144,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20,
}

// CountBuckets are the default small-count buckets (task counts, steal
// depths, retry totals): powers of two from 1 to 1024.
var CountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// ---------------------------------------------------------------- registry

// shardCount must be a power of two.
const shardCount = 16

// Registry holds metric families sharded by name hash, so registration and
// exposition from concurrent goroutines contend per shard, not globally.
type Registry struct {
	shards [shardCount]registryShard
}

type registryShard struct {
	mu       sync.RWMutex
	families map[string]*family
}

// Default is the process-wide registry every parajoin subsystem registers
// into; internal/debug serves it at /metrics.
var Default = NewRegistry()

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	for i := range r.shards {
		r.shards[i].families = make(map[string]*family)
	}
	return r
}

type family struct {
	name, help, typ string
	buckets         []float64 // histograms only

	mu     sync.Mutex
	series map[string]any // rendered label string -> *Counter/*Gauge/*Histogram
}

// fnv-1a; inlined so registration has no hash/maphash dependency surprises.
func hashName(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return h
}

func (r *Registry) family(name, help, typ string, buckets []float64) *family {
	s := &r.shards[hashName(name)&(shardCount-1)]
	s.mu.RLock()
	f := s.families[name]
	s.mu.RUnlock()
	if f == nil {
		s.mu.Lock()
		f = s.families[name]
		if f == nil {
			f = &family{name: name, help: help, typ: typ, buckets: buckets, series: make(map[string]any)}
			s.families[name] = f
		}
		s.mu.Unlock()
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	return f
}

// renderLabels turns labels into their canonical `k="v",...` form (sorted
// by name, values escaped per the Prometheus text format).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// Counter registers (or retrieves) a monotone counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.family(name, help, "counter", nil)
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m.(*Counter)
	}
	c := &Counter{}
	f.series[key] = c
	return c
}

// Gauge registers (or retrieves) an integer gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.family(name, help, "gauge", nil)
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m.(*Gauge)
	}
	g := &Gauge{}
	f.series[key] = g
	return g
}

// Histogram registers (or retrieves) a fixed-bucket histogram series.
// buckets are the upper bounds (le), strictly increasing; a final +Inf
// bucket is implicit. The first registration of a family fixes its bucket
// scheme; later calls for the same family reuse it.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: %s buckets not strictly increasing at %d", name, i))
		}
	}
	f := r.family(name, help, "histogram", buckets)
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m.(*Histogram)
	}
	h := newHistogram(f.buckets)
	f.series[key] = h
	return h
}

// ---------------------------------------------------------------- metrics

// Counter is a monotone int64 counter. Add is one atomic add.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an int64 gauge. Add and Set are one atomic op each.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by n (negative allowed).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram. Observe performs an inline binary
// search over the bounds plus four atomic operations and allocates nothing,
// so it is safe on the engine's per-batch hot path.
type Histogram struct {
	bounds  []float64      // upper bounds, strictly increasing
	counts  []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	maxBits atomic.Uint64 // float64 bits of the largest observation
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value. Zero-allocation; safe for concurrent use.
func (h *Histogram) Observe(v float64) {
	// Smallest i with bounds[i] >= v (le semantics); len(bounds) is +Inf.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) && old != 0 {
			break
		}
		if math.Float64frombits(old) >= v {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(d.Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 { return math.Float64frombits(h.maxBits.Load()) }

// Quantile estimates the q-th quantile (0 < q < 1) by linear interpolation
// within the bucket holding the target rank — the same estimate a
// Prometheus histogram_quantile() produces, except the top bucket is capped
// at the tracked maximum instead of extrapolating to +Inf.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q >= 1 {
		return h.Max()
	}
	rank := q * float64(total)
	var cum int64
	prev := 0.0
	for i := range h.counts {
		c := h.counts[i].Load()
		cum += c
		upper := h.Max()
		if i < len(h.bounds) {
			upper = h.bounds[i]
		}
		if upper < prev {
			upper = prev
		}
		if float64(cum) >= rank {
			v := upper
			if c > 0 {
				frac := (rank - float64(cum-c)) / float64(c)
				v = prev + (upper-prev)*frac
			}
			// Interpolation assumes observations spread across the whole
			// bucket; the tracked max is a hard ceiling on what was actually
			// observed, so clamp (keeps q monotone and p99 <= max even when
			// a bucket holds a single sample far below its upper bound).
			if mx := h.Max(); v > mx {
				v = mx
			}
			return v
		}
		prev = upper
	}
	return h.Max()
}

// ------------------------------------------------------------- exposition

// WritePrometheus writes the registry in the Prometheus text format
// (version 0.0.4): families sorted by name, series sorted by label set,
// histograms with cumulative buckets, _sum, and _count.
func (r *Registry) WritePrometheus(w interface{ Write([]byte) (int, error) }) {
	var fams []*family
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		for _, f := range s.families {
			fams = append(fams, f)
		}
		s.mu.RUnlock()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b bytes.Buffer
	for _, f := range fams {
		f.write(&b)
	}
	w.Write(b.Bytes())
}

func (f *family) write(b *bytes.Buffer) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type row struct {
		labels string
		m      any
	}
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, row{k, f.series[k]})
	}
	f.mu.Unlock()

	if len(rows) == 0 {
		return
	}
	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name,
			strings.ReplaceAll(strings.ReplaceAll(f.help, `\`, `\\`), "\n", `\n`))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	for _, r := range rows {
		switch m := r.m.(type) {
		case *Counter:
			writeSample(b, f.name, "", r.labels, "", strconv.FormatInt(m.Value(), 10))
		case *Gauge:
			writeSample(b, f.name, "", r.labels, "", strconv.FormatInt(m.Value(), 10))
		case *Histogram:
			var cum int64
			for i := range m.counts {
				cum += m.counts[i].Load()
				le := "+Inf"
				if i < len(m.bounds) {
					le = formatFloat(m.bounds[i])
				}
				writeSample(b, f.name, "_bucket", r.labels, le, strconv.FormatInt(cum, 10))
			}
			writeSample(b, f.name, "_sum", r.labels, "", formatFloat(m.Sum()))
			writeSample(b, f.name, "_count", r.labels, "", strconv.FormatInt(m.Count(), 10))
		}
	}
}

func writeSample(b *bytes.Buffer, name, suffix, labels, le, value string) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels != "" || le != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if le != "" {
			if labels != "" {
				b.WriteByte(',')
			}
			b.WriteString(`le="`)
			b.WriteString(le)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the Default registry.
func Handler() http.Handler { return HandlerFor(Default) }

// HandlerFor returns an http.Handler serving r in the Prometheus text
// format.
func HandlerFor(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
