package cluster

import (
	"fmt"
	"strings"

	"parajoin/internal/core"
	"parajoin/internal/partstore"
	"parajoin/internal/shares"
	"parajoin/internal/stats"
)

// Resize is the share re-derivation a membership change implies: the
// HyperCube configuration (the paper's Algorithm 1) before and after the
// worker count changed, with the expected per-worker loads and total
// shuffle volumes under each. The coordinator computes one on every resize
// for its logs and trace stream, and cmd/hcconfig -nodes-after exposes the
// same computation offline — one code path, two consumers.
type Resize struct {
	Query                         *core.Query
	WorkersBefore, WorkersAfter   int
	Before, After                 shares.Config
	LoadBefore, LoadAfter         float64
	ShuffledBefore, ShuffledAfter float64
}

// ReDerive runs the share optimizer for both cluster sizes. The catalog
// needs only cardinalities (the share LP sees nothing else), so a catalog
// rebuilt from persisted manifest statistics — no relation data — is
// sufficient.
func ReDerive(q *core.Query, cat *stats.Catalog, workersBefore, workersAfter int) (*Resize, error) {
	r := &Resize{Query: q, WorkersBefore: workersBefore, WorkersAfter: workersAfter}
	var err error
	if r.Before, err = shares.Optimize(q, cat, workersBefore); err != nil {
		return nil, fmt.Errorf("cluster: shares for %d workers: %w", workersBefore, err)
	}
	if r.After, err = shares.Optimize(q, cat, workersAfter); err != nil {
		return nil, fmt.Errorf("cluster: shares for %d workers: %w", workersAfter, err)
	}
	if r.LoadBefore, err = shares.ExpectedLoad(q, cat, r.Before); err != nil {
		return nil, err
	}
	if r.LoadAfter, err = shares.ExpectedLoad(q, cat, r.After); err != nil {
		return nil, err
	}
	if r.ShuffledBefore, err = shares.TuplesShuffled(q, cat, r.Before); err != nil {
		return nil, err
	}
	if r.ShuffledAfter, err = shares.TuplesShuffled(q, cat, r.After); err != nil {
		return nil, err
	}
	return r, nil
}

// String renders the resize in one log-friendly line.
func (r *Resize) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shares %s (%d workers, load %.0f, shuffled %.0f) -> %s (%d workers, load %.0f, shuffled %.0f)",
		r.Before, r.WorkersBefore, r.LoadBefore, r.ShuffledBefore,
		r.After, r.WorkersAfter, r.LoadAfter, r.ShuffledAfter)
	return b.String()
}

// CatalogFromStore rebuilds a planning-statistics catalog from a store's
// persisted manifest numbers, without touching segment data. Only the
// share optimizer may consume it (cardinalities and per-column distinct
// counts are exact; prefix-distinct counts, which the variable-order search
// needs, require the data and are estimated). It shares nothing with a
// serving DB's catalog on purpose: it runs where no DB is open — between a
// membership commit and the rebuild, and in cmd/hcconfig — and it costs no
// relation scan to begin with.
func CatalogFromStore(store *partstore.Store) *stats.Catalog {
	cat := stats.NewCatalog()
	for _, e := range store.Relations() {
		cat.AddStats(stats.Precomputed(e.Name, int(e.Cardinality), e.ColumnDistinct))
	}
	return cat
}
