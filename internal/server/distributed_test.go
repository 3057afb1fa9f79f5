// Full-stack distributed execution tests: a real server whose coordinator
// pushes operator fragments to real data-node members over TCP, wired
// exactly the way cmd/parajoind wires them — every committed membership
// change rebuilds the serving DB from the partition catalog and installs a
// fragment dispatcher before the swap makes the engine visible.
package server_test

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parajoin"
	"parajoin/client"
	"parajoin/internal/cluster"
	"parajoin/internal/partstore"
	"parajoin/internal/server"
)

// distStack is one coordinator-server plus its data nodes.
type distStack struct {
	t         *testing.T
	srv       *server.Server
	coord     *cluster.Coordinator
	store     *partstore.Store
	addr      string // query-serving address
	coordAddr string // cluster membership address
	serving   chan []string
	rebuilds  atomic.Int64
}

// newDistStack starts a server over a fresh 4-worker DB with graph E
// loaded and persisted to a partition catalog, plus a coordinator whose
// OnChange mirrors parajoind's rebuildForMembers: rebuild from the store
// for the committed member set and install the generation's fragment
// dispatcher inside the swap.
func newDistStack(t *testing.T, edges int, cfg server.Config) *distStack {
	t.Helper()
	st := &distStack{t: t, serving: make(chan []string, 64)}

	db := parajoin.Open(4, parajoin.WithSeed(7))
	if err := db.LoadEdges("E", parajoin.SyntheticGraph(edges, 300, 5)); err != nil {
		t.Fatal(err)
	}
	var err error
	st.store, err = partstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PersistTo(st.store, 8); err != nil {
		t.Fatal(err)
	}

	if cfg.Logf == nil {
		cfg.Logf = quiet
	}
	st.srv = server.New(db, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st.addr = ln.Addr().String()
	go st.srv.Serve(ln)

	st.coord = cluster.NewCoordinator(st.store, cluster.CoordinatorConfig{
		HeartbeatEvery: 20 * time.Millisecond,
		CallTimeout:    5 * time.Second,
		Logf:           t.Logf,
		OnChange: func(members []string) {
			st.rebuild(members)
			st.serving <- append([]string(nil), members...)
		},
	})
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st.coordAddr = cln.Addr().String()
	go st.coord.Serve(cln)

	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		st.srv.Shutdown(ctx)
		st.coord.Close()
		st.srv.DB().Close()
	})
	return st
}

// rebuild is parajoind's rebuildForMembers in miniature.
func (st *distStack) rebuild(members []string) {
	if len(members) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := st.srv.Rebuild(ctx, func(*parajoin.DB) (*parajoin.DB, error) {
		ndb, err := parajoin.OpenFromStore(st.store, members, parajoin.WithSeed(7))
		if err != nil {
			return nil, err
		}
		d := st.coord.DispatcherFor(members, cluster.DispatcherConfig{Logf: st.t.Logf})
		if d == nil {
			// A member vanished between commit and here; keep
			// coordinator-local execution for this generation.
			return ndb, nil
		}
		ndb.SetRemoteRunner(d)
		return ndb, nil
	})
	if err != nil {
		st.t.Logf("rebuild for %v: %v", members, err)
		return
	}
	st.rebuilds.Add(1)
}

// addMember starts a data node with an empty local store and returns a stop
// function that simulates a crash (no graceful leave).
func (st *distStack) addMember(name string) (stop func()) {
	st.t.Helper()
	store, err := partstore.Open(st.t.TempDir())
	if err != nil {
		st.t.Fatal(err)
	}
	m, err := cluster.NewMember(store, cluster.MemberConfig{
		Name:            name,
		CoordinatorAddr: st.coordAddr,
		CallTimeout:     5 * time.Second,
		JoinBackoff:     20 * time.Millisecond,
		Logf:            st.t.Logf,
	})
	if err != nil {
		st.t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go m.Run(ctx)
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		m.Close()
	}
	st.t.Cleanup(stop)
	return stop
}

// waitServing drains membership commits (each one post-rebuild) until the
// wanted set is the one being served.
func (st *distStack) waitServing(want ...string) {
	st.t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case got := <-st.serving:
			if reflect.DeepEqual(got, want) {
				return
			}
		case <-deadline:
			st.t.Fatalf("timed out waiting to serve membership %v", want)
		}
	}
}

// TestDistributedServingMatchesLocal grows the cluster from one to three
// data nodes and, at every size, requires the distributed answer to match a
// coordinator-local engine opened from the same catalog for the same member
// set — byte-identical, row for row, using the deterministic HyperCube +
// Tributary strategy — and to agree as a set with the pre-cluster baseline.
func TestDistributedServingMatchesLocal(t *testing.T) {
	st := newDistStack(t, 1500, server.Config{})
	c := dial(t, st.addr)
	ctx := context.Background()
	opts := client.QueryOptions{Strategy: "hc_tj"}

	base, err := c.Run(ctx, triRule, opts)
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.RemoteFragments != 0 {
		t.Fatalf("pre-cluster query claims %d remote fragments", base.Stats.RemoteFragments)
	}
	want := canon(base.Rows)
	if len(want) == 0 {
		t.Fatal("baseline found no triangles; test graph too sparse")
	}

	members := []string{"m0", "m1", "m2"}
	for n := 1; n <= len(members); n++ {
		st.addMember(members[n-1])
		st.waitServing(members[:n]...)

		res, err := c.Run(ctx, triRule, opts)
		if err != nil {
			t.Fatalf("distributed run at %d members: %v", n, err)
		}
		if res.Stats.RemoteFragments != n {
			t.Fatalf("at %d members: stats report %d remote fragments", n, res.Stats.RemoteFragments)
		}
		if !reflect.DeepEqual(res.Stats.RemoteMembers, members[:n]) {
			t.Fatalf("at %d members: remote members %v", n, res.Stats.RemoteMembers)
		}
		if got := canon(res.Rows); !reflect.DeepEqual(got, want) {
			t.Fatalf("at %d members: distributed answer differs as a set: %d rows vs %d",
				n, len(got), len(want))
		}

		// The byte-identical-merge invariant: a coordinator-local engine
		// over the same catalog generation and member set must produce the
		// same rows in the same serial order.
		ldb, err := parajoin.OpenFromStore(st.store, members[:n], parajoin.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		q, err := ldb.Query(triRule)
		if err != nil {
			ldb.Close()
			t.Fatal(err)
		}
		lres, err := q.RunWithOptions(ctx, parajoin.RunOptions{Strategy: parajoin.Strategy("hc_tj")})
		if err != nil {
			ldb.Close()
			t.Fatal(err)
		}
		lexp, err := q.RunWithOptions(ctx, parajoin.RunOptions{Strategy: parajoin.Strategy("hc_tj"), Explain: true})
		ldb.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(lres.Rows) != len(res.Rows) {
			t.Fatalf("at %d members: local %d rows vs distributed %d", n, len(lres.Rows), len(res.Rows))
		}
		for i := range lres.Rows {
			if !reflect.DeepEqual(lres.Rows[i], res.Rows[i]) {
				t.Fatalf("at %d members: row %d differs in serial order: local %v vs distributed %v",
					n, i, lres.Rows[i], res.Rows[i])
			}
		}

		// The members' merged reports carry the local run's traffic and skew.
		if res.Stats.TuplesShuffled != lres.Stats.TuplesShuffled || res.Stats.MaxConsumerSkew != lres.Stats.MaxConsumerSkew {
			t.Fatalf("at %d members: distributed shuffled %d (skew %v), local %d (skew %v)", n,
				res.Stats.TuplesShuffled, res.Stats.MaxConsumerSkew, lres.Stats.TuplesShuffled, lres.Stats.MaxConsumerSkew)
		}
		// A served EXPLAIN says where the operators ran and shows the same
		// per-exchange traffic as the local one.
		exp, err := c.Explain(ctx, triRule, opts)
		if err != nil {
			t.Fatalf("distributed explain at %d members: %v", n, err)
		}
		if line := fmt.Sprintf("execution: distributed over %d data node(s)", n); !strings.Contains(exp, line) {
			t.Fatalf("at %d members: explain lacks %q:\n%s", n, line, exp)
		}
		traffic := regexp.MustCompile(`sent=\d+ producer-skew=\S+ consumer-skew=[^ )]+`).FindAllString(lexp.Stats.Explain, -1)
		if len(traffic) == 0 {
			t.Fatalf("local explain shows no exchange traffic:\n%s", lexp.Stats.Explain)
		}
		for _, tr := range traffic {
			if !strings.Contains(exp, tr) {
				t.Fatalf("at %d members: distributed explain lacks the local %q:\n%s", n, tr, exp)
			}
		}
	}
}

// TestDistributedMemberDeathRetriesQuery kills a data node while a query is
// in flight on it. The dispatcher must surface a retryable transport error,
// the coordinator's rebuild must shrink the serving engine to the survivor,
// and the server's retry budget must re-dispatch the query — one logical
// round trip per attempt — until it succeeds with the same answer. The
// client sees one successful response whose Attempts count proves the
// re-dispatch happened.
func TestDistributedMemberDeathRetriesQuery(t *testing.T) {
	st := newDistStack(t, 2000, server.Config{
		RetryBudget:  10,
		RetryBackoff: 25 * time.Millisecond,
	})
	c := dial(t, st.addr)
	ctx := context.Background()

	st.addMember("m0")
	st.waitServing("m0")
	stop1 := st.addMember("m1")
	st.waitServing("m0", "m1")

	base, err := c.Run(ctx, chainRule, client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.RemoteFragments != 2 {
		t.Fatalf("warmup ran %d remote fragments, want 2", base.Stats.RemoteFragments)
	}
	want := canon(base.Rows)

	type answer struct {
		res *client.Result
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, err := c.Run(ctx, slowRule, client.QueryOptions{Timeout: 2 * time.Minute})
		done <- answer{res, err}
	}()

	// Kill m1 only once the slow query is actually executing, so the death
	// lands mid-dispatch, not between queries.
	waitFor(t, "slow query in flight", func() bool {
		return st.srv.Stats().Gate.InFlight >= 1
	})
	time.Sleep(10 * time.Millisecond)
	stop1()

	a := <-done
	if a.err != nil {
		t.Fatalf("query did not survive the member death: %v", a.err)
	}
	if a.res.Stats.Attempts < 2 {
		t.Fatalf("query reports %d attempts; the member death was not retried", a.res.Stats.Attempts)
	}
	if a.res.Stats.RetryCause == "" {
		t.Fatal("retried query reports no retry cause")
	}

	// The survivor generation must still answer every query correctly,
	// distributed over the one remaining member.
	st.waitServing("m0")
	res, err := c.Run(ctx, chainRule, client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RemoteFragments != 1 {
		t.Fatalf("survivor generation ran %d remote fragments, want 1", res.Stats.RemoteFragments)
	}
	if got := canon(res.Rows); !reflect.DeepEqual(got, want) {
		t.Fatalf("answer changed after member death: %d rows vs %d", len(got), len(want))
	}
}
