package engine

import (
	"sync"
	"sync/atomic"

	"parajoin/internal/rel"
	"parajoin/internal/spill"
)

// HeldAtPeak is what one worker held, in int64 values, when its charged
// reservation last rose to its high-water mark (Report.PeakResidentTuples),
// beside what was charged then: where the accountant's charge and the
// memory a run holds part ways.
type HeldAtPeak struct {
	// Charged is the reservation, in tuples.
	Charged int64
	// HashCharged and SortCharged are the values (tuples × arity) of the
	// reservation charged by hash tables (the hash join, the semijoin and
	// dedup) and by the Tributary join's Sorters. Buffered is the values
	// charged by Buffers (the Tributary join's output), which hold what
	// they are charged for.
	HashCharged, SortCharged, Buffered int64
	// Hash is the values in the worker's live hash tables. Sorted is the
	// values the Tributary join's sort holds: its Sorters' arenas while
	// they take rows, then the sorted words and trie directories until the
	// join has run. Queued is the values waiting in the worker's inbound
	// exchange queues (0 on a transport that keeps no queue gauges); Store
	// the values in the cluster's batch store, which every worker shares.
	Hash, Sorted, Queued, Store int64
}

// heldLedger is one worker's running HeldAtPeak counters and the snapshot
// taken at its latest peak.
type heldLedger struct {
	hashCharged, sortCharged, buffered, hash, sorted atomic.Int64

	mu   sync.Mutex
	peak HeldAtPeak
}

// spill counts n values charged (or, negative, released by a seal) by a
// Sorter (sorts) or a Buffer. A Sorter's rows sit in its arena until it
// finishes.
func (l *heldLedger) spill(sorts bool, n int64) {
	if sorts {
		l.sortCharged.Add(n)
		l.sorted.Add(n)
	} else {
		l.buffered.Add(n)
	}
}

// notePeak is the accountant's OnPeak hook: it records what worker w
// holds now that its reservation has risen to used tuples.
func (e *exec) notePeak(w int, used int64) {
	l := &e.held[w]
	l.mu.Lock()
	defer l.mu.Unlock()
	if used <= l.peak.Charged {
		return // a concurrent, higher peak got here first
	}
	l.peak = HeldAtPeak{
		Charged:     used,
		HashCharged: l.hashCharged.Load(),
		SortCharged: l.sortCharged.Load(),
		Buffered:    l.buffered.Load(),
		Hash:        l.hash.Load(),
		Sorted:      l.sorted.Load(),
		Store:       e.cluster.batches.vals.Load(),
	}
	if e.queues != nil {
		l.peak.Queued = e.queues[w].vals.Load()
	}
}

// heldAtPeak returns every worker's snapshot.
func (e *exec) heldAtPeak() []HeldAtPeak {
	out := make([]HeldAtPeak, len(e.held))
	for w := range e.held {
		l := &e.held[w]
		l.mu.Lock()
		out[w] = l.peak
		l.mu.Unlock()
	}
	return out
}

// addToSpill hands b to a Sorter or Buffer of worker w, counting its values
// first: the reservation AddBatch makes may be a new peak.
func (e *exec) addToSpill(w int, dst interface{ AddBatch(b rel.Batch) error }, b rel.Batch) error {
	_, sorts := dst.(*spill.Sorter)
	e.held[w].spill(sorts, int64(len(b.Vals)))
	return dst.AddBatch(b)
}
