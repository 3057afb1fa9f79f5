// Elastic serving tests: swapping the served DB with Rebuild while clients
// run, the OpCluster status frame, and byte-identical answers across a
// worker-count change.
package server_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"parajoin"
	"parajoin/client"
	"parajoin/internal/partstore"
	"parajoin/internal/server"
	"parajoin/internal/wire"
)

var errWrongAnswer = errors.New("answer differs from the baseline")

// TestRebuildByteIdenticalAcrossWorkerCounts persists the served DB to a
// partition catalog, swaps in rebuilds for several member sets, and checks
// every answer (canonicalized — row order legitimately differs across
// partitionings) against the original.
func TestRebuildByteIdenticalAcrossWorkerCounts(t *testing.T) {
	srv, db, addr := newTestServer(t, 900, server.Config{})
	t.Cleanup(func() { srv.DB().Close() })
	c := dial(t, addr)
	ctx := context.Background()

	store, err := partstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PersistTo(store, 8); err != nil {
		t.Fatal(err)
	}

	base, err := c.Run(ctx, triRule, client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := canon(base.Rows)
	if got := srv.LastRule(); got != triRule {
		t.Fatalf("LastRule = %q, want %q", got, triRule)
	}

	for _, members := range [][]string{
		{"a", "b", "c"},
		{"a", "c"},
		{"a", "b", "c", "d", "e"},
	} {
		members := members
		if err := srv.Rebuild(ctx, func(*parajoin.DB) (*parajoin.DB, error) {
			return parajoin.OpenFromStore(store, members)
		}); err != nil {
			t.Fatalf("rebuild for %v: %v", members, err)
		}
		if got := srv.DB().Workers(); got != len(members) {
			t.Fatalf("after rebuild for %v: %d workers", members, got)
		}
		res, err := c.Run(ctx, triRule, client.QueryOptions{})
		if err != nil {
			t.Fatalf("run after rebuild for %v: %v", members, err)
		}
		if got := canon(res.Rows); !reflect.DeepEqual(got, want) {
			t.Fatalf("rebuild for %v changed the answer: %d rows vs %d", members, len(got), len(want))
		}
		if res.Stats.Workers != len(members) {
			t.Fatalf("stats report %d workers, want %d", res.Stats.Workers, len(members))
		}
	}
}

// TestRebuildUnderConcurrentQueries swaps the DB repeatedly while clients
// hammer it; every query must either succeed with the canonical answer or
// not at all (no wrong results, no stuck queries).
func TestRebuildUnderConcurrentQueries(t *testing.T) {
	srv, db, addr := newTestServer(t, 700, server.Config{MaxConcurrent: 4})
	t.Cleanup(func() { srv.DB().Close() })
	ctx := context.Background()

	store, err := partstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PersistTo(store, 8); err != nil {
		t.Fatal(err)
	}
	base, err := dial(t, addr).Run(ctx, triRule, client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := canon(base.Rows)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 4; i++ {
		c := dial(t, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				res, err := c.Run(ctx, triRule, client.QueryOptions{})
				if err != nil {
					errs <- err
					return
				}
				if got := canon(res.Rows); !reflect.DeepEqual(got, want) {
					errs <- errWrongAnswer
					return
				}
			}
		}()
	}
	memberSets := [][]string{{"a", "b"}, {"a", "b", "c", "d"}, {"x", "y", "z"}}
	for _, members := range memberSets {
		members := members
		rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err := srv.Rebuild(rctx, func(*parajoin.DB) (*parajoin.DB, error) {
			return parajoin.OpenFromStore(store, members)
		})
		cancel()
		if err != nil {
			t.Fatalf("rebuild for %v: %v", members, err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent query: %v", err)
	}
}

// TestOpClusterFallbackAndProvider covers the OpCluster frame: the static
// single-node fallback, and a provider whose zero Workers field is filled
// with the served DB's count.
func TestOpClusterFallbackAndProvider(t *testing.T) {
	srv, _, addr := newTestServer(t, 50, server.Config{})
	c := dial(t, addr)
	ctx := context.Background()

	info, err := c.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Workers != 4 || len(info.Members) != 1 || info.Members[0].Name != "local" {
		t.Fatalf("fallback cluster info = %+v", info)
	}

	srv.SetClusterInfo(func() *wire.ClusterInfo {
		return &wire.ClusterInfo{
			CatalogVersion: 7,
			Members: []wire.ClusterMember{
				{ID: 1, Name: "m1", State: "alive", Slots: 5},
				{ID: 2, Name: "m2", State: "dead"},
			},
			Partitions: []wire.PartitionInfo{{Relation: "E", Slot: 0, Owner: "m1", Tuples: 9}},
		}
	})
	info, err = c.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.CatalogVersion != 7 || len(info.Members) != 2 || len(info.Partitions) != 1 {
		t.Fatalf("provider cluster info = %+v", info)
	}
	if info.Workers != 4 {
		t.Fatalf("zero Workers not backfilled: %+v", info)
	}
}
