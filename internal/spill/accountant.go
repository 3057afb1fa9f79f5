package spill

import (
	"sync/atomic"
)

// Accountant tracks every worker's materialized tuples against a per-run
// budget with reserve/release semantics. One accountant is shared by all
// operators of a run, so memory freed by one operator's spill is
// immediately available to the others. It also enforces the run's hard
// disk cap on spilled bytes.
//
// All methods are safe for concurrent use; the counters are per-worker
// atomics, so reservations from different workers never contend.
type Accountant struct {
	limit     int64 // tuples per worker; <= 0 means unlimited
	diskLimit int64 // bytes across the run; <= 0 means unlimited
	diskUsed  atomic.Int64
	workers   []workerAccount
	onPeak    func(w int, used int64)
}

type workerAccount struct {
	used  atomic.Int64
	peak  atomic.Int64
	blown atomic.Pointer[string] // first operator label to trip the budget
	// pad keeps neighbouring workers' counters off one cache line.
	_ [24]byte
}

// NewAccountant creates an accountant for n workers. limit caps each
// worker's resident tuples (<= 0 for unlimited — usage and peaks are
// still tracked); diskLimit caps the run's total spilled bytes.
func NewAccountant(n int, limit, diskLimit int64) *Accountant {
	return &Accountant{limit: limit, diskLimit: diskLimit, workers: make([]workerAccount, n)}
}

// OnPeak sets f to be called with a worker and its new reservation each
// time a Reserve raises that worker's high-water mark. Calls for one
// worker may come concurrently and out of order. Set it before the first
// Reserve.
func (a *Accountant) OnPeak(f func(w int, used int64)) { a.onPeak = f }

// Limit returns the per-worker tuple budget (<= 0 means unlimited).
func (a *Accountant) Limit() int64 { return a.limit }

// Reserve charges n tuples to worker w's budget. It reports false — and
// leaves the usage unchanged — when the reservation would exceed the
// budget; the caller either spills and retries or fails the run. A
// reservation that does not fit is never stored, not even for a moment, so
// a failed reservation of a whole stretch of rows cannot make a concurrent
// reservation on the same worker fail that fits.
func (a *Accountant) Reserve(w int, n int64) bool {
	wa := &a.workers[w]
	used, ok := addUpTo(&wa.used, n, a.limit)
	if !ok {
		return false
	}
	for {
		p := wa.peak.Load()
		if used <= p {
			return true
		}
		if wa.peak.CompareAndSwap(p, used) {
			if a.onPeak != nil {
				a.onPeak(w, used)
			}
			return true
		}
	}
}

// addUpTo adds n to v unless the sum would exceed limit (<= 0 means
// unlimited), and returns the sum and whether it was stored. A sum over
// the limit is never stored.
func addUpTo(v *atomic.Int64, n, limit int64) (int64, bool) {
	if limit <= 0 {
		return v.Add(n), true
	}
	for {
		cur := v.Load()
		if cur+n > limit {
			return cur, false
		}
		if v.CompareAndSwap(cur, cur+n) {
			return cur + n, true
		}
	}
}

// Release returns n tuples of worker w's reservation (a sealed run's
// worth, typically).
func (a *Accountant) Release(w int, n int64) {
	a.workers[w].used.Add(-n)
}

// Used returns worker w's current reservation.
func (a *Accountant) Used(w int) int64 { return a.workers[w].used.Load() }

// Resident returns the reservations of all workers together.
func (a *Accountant) Resident() int64 {
	var n int64
	for i := range a.workers {
		n += a.workers[i].used.Load()
	}
	return n
}

// Peak returns worker w's reservation high-water mark.
func (a *Accountant) Peak(w int) int64 { return a.workers[w].peak.Load() }

// Peaks returns every worker's high-water mark (a fresh slice).
func (a *Accountant) Peaks() []int64 {
	out := make([]int64, len(a.workers))
	for i := range a.workers {
		out[i] = a.workers[i].peak.Load()
	}
	return out
}

// Blow records that op tripped worker w's budget; the first operator to
// blow it wins (later calls are ignored), so error messages name the
// original culprit rather than a victim of the resulting pressure.
func (a *Accountant) Blow(w int, op string) {
	a.workers[w].blown.CompareAndSwap(nil, &op)
}

// Blown reports whether worker w's budget was blown, and by which
// operator.
func (a *Accountant) Blown(w int) (string, bool) {
	if p := a.workers[w].blown.Load(); p != nil {
		return *p, true
	}
	return "", false
}

// ReserveDisk charges n freshly spilled bytes against the run's disk
// cap, returning ErrDiskBudget when the cap would be exceeded. Like
// Reserve, it never stores a charge over the cap.
func (a *Accountant) ReserveDisk(n int64) error {
	if _, ok := addUpTo(&a.diskUsed, n, a.diskLimit); !ok {
		return ErrDiskBudget
	}
	return nil
}

// DiskUsed returns the bytes spilled so far.
func (a *Accountant) DiskUsed() int64 { return a.diskUsed.Load() }
