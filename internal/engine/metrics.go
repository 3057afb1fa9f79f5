package engine

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// Metrics collects, per query run, the quantities the paper's evaluation
// reports: tuples sent and received per exchange (from which producer and
// consumer skew derive), per-worker busy time (the stand-in for CPU time),
// and phase timings (sort vs join) for the Tributary join. It accumulates
// straight into the Report the run hands back.
type Metrics struct {
	mu sync.Mutex
	r  Report
	ex map[int]*ExchangeReport // exchange id → its row of r.Exchanges
}

// NewMetrics creates metrics for n workers running a plan with the given
// exchanges: one traffic row per exchange, in plan order.
func NewMetrics(n int, exchanges []ExchangeSpec) *Metrics {
	m := &Metrics{
		r: Report{
			Workers:   n,
			BusyTime:  make([]time.Duration, n),
			SortTime:  make([]time.Duration, n),
			JoinTime:  make([]time.Duration, n),
			Processed: make([]int64, n),
			Sorted:    make([]int64, n),
			Seeks:     make([]int64, n),
			Exchanges: make([]ExchangeReport, len(exchanges)),
		},
		ex: make(map[int]*ExchangeReport, len(exchanges)),
	}
	for i, spec := range exchanges {
		row := &m.r.Exchanges[i]
		*row = ExchangeReport{ID: spec.ID, Name: spec.Name, Sent: make([]int64, n), Received: make([]int64, n)}
		m.ex[spec.ID] = row
	}
	return m
}

func (m *Metrics) addSent(id, worker int, n int64) {
	m.mu.Lock()
	m.ex[id].Sent[worker] += n
	m.mu.Unlock()
	live.tuplesSent.Add(n)
}

func (m *Metrics) addReceived(id, worker int, n int64) {
	m.mu.Lock()
	m.ex[id].Received[worker] += n
	m.mu.Unlock()
	live.tuplesReceived.Add(n)
}

func (m *Metrics) addBusy(worker int, d time.Duration) {
	m.mu.Lock()
	m.r.BusyTime[worker] += d
	m.mu.Unlock()
}

func (m *Metrics) addSort(worker int, d time.Duration) {
	m.mu.Lock()
	m.r.SortTime[worker] += d
	m.mu.Unlock()
}

func (m *Metrics) addJoin(worker int, d time.Duration) {
	m.mu.Lock()
	m.r.JoinTime[worker] += d
	m.mu.Unlock()
}

func (m *Metrics) addProcessed(worker int, n int64) {
	m.mu.Lock()
	m.r.Processed[worker] += n
	m.mu.Unlock()
}

func (m *Metrics) addSorted(worker int, n int64) {
	m.mu.Lock()
	m.r.Sorted[worker] += n
	m.mu.Unlock()
}

func (m *Metrics) addSeeks(worker int, n int64) {
	m.mu.Lock()
	m.r.Seeks[worker] += n
	m.mu.Unlock()
}

func (m *Metrics) addJoinTasks(n int64) {
	m.mu.Lock()
	m.r.JoinTasks += n
	m.mu.Unlock()
}

func (m *Metrics) noteJoinSteal(n int64) {
	m.mu.Lock()
	m.r.JoinStealMax = max(m.r.JoinStealMax, n)
	m.mu.Unlock()
}

// report hands over the accumulated Report. Call it once, after every
// worker goroutine has finished.
func (m *Metrics) report(wall time.Duration) *Report {
	m.r.WallTime = wall
	return &m.r
}

// Report is an immutable snapshot of a finished run's metrics.
type Report struct {
	Workers int
	// WallTime is the end-to-end query time.
	WallTime time.Duration
	// CPUTime is the process CPU (user+system) consumed by the run — the
	// honest "total CPU time" of the paper's figures. Zero on platforms
	// without rusage.
	CPUTime time.Duration
	// BusyTime is per-worker wall time spent outside transport waits. It
	// drives the skew and utilization views; when the host has fewer cores
	// than workers it overstates absolute work (runnable-but-descheduled
	// time counts), so totals should come from CPUTime.
	BusyTime []time.Duration
	// SortTime and JoinTime break down the Tributary join phases (Table 5).
	SortTime []time.Duration
	JoinTime []time.Duration
	// Processed counts tuples entering each worker's operators (scans plus
	// exchange receipts) — a deterministic per-worker load measure that,
	// unlike busy time, is immune to host-core oversubscription.
	Processed []int64
	// Sorted counts tuples each worker's Tributary joins sorted; Seeks
	// counts their trie searches. Both are deterministic work measures.
	Sorted []int64
	Seeks  []int64
	// BytesSent/BytesReceived and BatchesSent/BatchesReceived count the
	// run's transport traffic. Bytes are the ones that crossed a socket, so
	// they stay 0 when every worker is hosted in one process.
	BytesSent       int64
	BytesReceived   int64
	BatchesSent     int64
	BatchesReceived int64
	// MaxQueueDepth is the transport's batch-backlog high-water mark (a
	// lifetime maximum, not reset between runs) — large values mean slow
	// consumers let producers run far ahead.
	MaxQueueDepth int64
	// PeakResidentTuples is each worker's reservation high-water mark
	// against the memory accountant — the per-worker working set the run
	// actually held in memory at once.
	PeakResidentTuples []int64
	// SpilledBytes, SpillSegments, and Spills describe the run's
	// spill-to-disk activity: bytes written, segment files created, and
	// in-memory runs sealed. All zero when nothing spilled.
	SpilledBytes  int64
	SpillSegments int64
	Spills        int64
	// JoinTasks counts the sub-range joins executed by intra-worker
	// parallel Tributary joins (0 when every join ran serially);
	// JoinStealMax is the most sub-ranges any single pool goroutine
	// claimed — close to JoinTasks/K means balanced, close to JoinTasks
	// means one goroutine did nearly everything.
	JoinTasks    int64
	JoinStealMax int64
	// RemoteFragments is the number of operator fragments the run executed
	// on remote data nodes (0 for a coordinator-local run); RemoteMembers
	// names the members that ran them, in worker order. Set by the
	// fragment dispatcher, never by local execution.
	RemoteFragments int
	RemoteMembers   []string
	// Exchanges holds one traffic row per plan exchange, rounds in order
	// and plan order within a round.
	Exchanges []ExchangeReport
}

// ExchangeReport is the per-shuffle row of the paper's load-balance tables
// (Tables 2–4). Round and ID name the exchange within a multi-round run;
// Sent and Received are per-worker tuple counts (producers and consumers),
// from which the totals and skews derive.
type ExchangeReport struct {
	Round    int
	ID       int
	Name     string
	Sent     []int64
	Received []int64
}

// TuplesSent is the exchange's total traffic.
func (e ExchangeReport) TuplesSent() int64 { return sum(e.Sent) }

// ProducerSkew is max/average tuples sent per producer worker.
func (e ExchangeReport) ProducerSkew() float64 { return skew(e.Sent) }

// ConsumerSkew is max/average tuples received per consumer worker.
func (e ExchangeReport) ConsumerSkew() float64 { return skew(e.Received) }

// TotalTuplesShuffled sums traffic across all exchanges.
func (r *Report) TotalTuplesShuffled() int64 {
	var total int64
	for _, e := range r.Exchanges {
		total += e.TuplesSent()
	}
	return total
}

// TotalBusy sums per-worker busy time.
func (r *Report) TotalBusy() time.Duration { return sum(r.BusyTime) }

// TotalCPU returns the run's total CPU time: the measured process CPU when
// available, otherwise the busy-time sum.
func (r *Report) TotalCPU() time.Duration {
	if r.CPUTime > 0 {
		return r.CPUTime
	}
	return r.TotalBusy()
}

// MaxBusy returns the busiest worker's time — the straggler that determines
// wall-clock time in a one-round plan.
func (r *Report) MaxBusy() time.Duration {
	var max time.Duration
	for _, d := range r.BusyTime {
		if d > max {
			max = d
		}
	}
	return max
}

// BusySkew is max/avg busy time across workers.
func (r *Report) BusySkew() float64 {
	if r.TotalBusy() == 0 {
		return 1
	}
	avg := float64(r.TotalBusy()) / float64(r.Workers)
	return float64(r.MaxBusy()) / avg
}

// MaxProcessed returns the largest per-worker processed-tuple count — the
// deterministic analogue of the slowest worker's load.
func (r *Report) MaxProcessed() int64 {
	var max int64
	for _, p := range r.Processed {
		if p > max {
			max = p
		}
	}
	return max
}

// MaxConsumerSkew returns the largest consumer skew across exchanges — the
// "RS Skew (max)" column of Table 6. Exchanges carrying fewer than a
// handful of tuples per worker are ignored: a one-tuple shuffle trivially
// lands on one worker (skew = N) without telling us anything about balance.
func (r *Report) MaxConsumerSkew() float64 {
	worst := 0.0
	for _, e := range r.Exchanges {
		if e.TuplesSent() >= 4*int64(r.Workers) {
			worst = max(worst, e.ConsumerSkew())
		}
	}
	return worst
}

// skew is the max/average ratio of a per-worker vector, 1 when there is no
// traffic.
func skew(v []int64) float64 {
	total := sum(v)
	if total == 0 {
		return 1
	}
	return float64(slices.Max(v)) / (float64(total) / float64(len(v)))
}

func sum[T ~int64](v []T) T {
	var total T
	for _, x := range v {
		total += x
	}
	return total
}

// add folds b's per-worker vectors and counters into r: work and traffic
// sum, high-water marks take the max. Wall time and exchange rows are left
// to the caller — rounds run one after another, members side by side.
func (r *Report) add(b *Report) {
	r.Workers = max(r.Workers, b.Workers)
	r.CPUTime += b.CPUTime
	r.BusyTime = addVec(r.BusyTime, b.BusyTime)
	r.SortTime = addVec(r.SortTime, b.SortTime)
	r.JoinTime = addVec(r.JoinTime, b.JoinTime)
	r.Processed = addVec(r.Processed, b.Processed)
	r.Sorted = addVec(r.Sorted, b.Sorted)
	r.Seeks = addVec(r.Seeks, b.Seeks)
	r.BytesSent += b.BytesSent
	r.BytesReceived += b.BytesReceived
	r.BatchesSent += b.BatchesSent
	r.BatchesReceived += b.BatchesReceived
	r.MaxQueueDepth = max(r.MaxQueueDepth, b.MaxQueueDepth)
	// Rounds free their state before the next starts and each member holds
	// only its own workers' slots, so the peak merges as a max either way.
	r.PeakResidentTuples = maxVec(r.PeakResidentTuples, b.PeakResidentTuples)
	r.SpilledBytes += b.SpilledBytes
	r.SpillSegments += b.SpillSegments
	r.Spills += b.Spills
	r.JoinTasks += b.JoinTasks
	r.JoinStealMax = max(r.JoinStealMax, b.JoinStealMax)
}

// addVec and maxVec fold src into dst elementwise, cloning src when dst
// is empty so a merged report never aliases its inputs.
func addVec[T ~int64](dst, src []T) []T {
	if dst == nil {
		return slices.Clone(src)
	}
	for i := range min(len(dst), len(src)) {
		dst[i] += src[i]
	}
	return dst
}

func maxVec(dst, src []int64) []int64 {
	if dst == nil {
		return slices.Clone(src)
	}
	for i := range min(len(dst), len(src)) {
		dst[i] = max(dst[i], src[i])
	}
	return dst
}

func (r *Report) String() string {
	return fmt.Sprintf("wall=%v cpu=%v shuffled=%d tuples over %d exchanges (consumer skew ≤ %.2f)",
		r.WallTime, r.TotalCPU(), r.TotalTuplesShuffled(), len(r.Exchanges), r.MaxConsumerSkew())
}
