package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"

	"parajoin/internal/colbatch"
	"parajoin/internal/engine"
	"parajoin/internal/rel"
)

// Member-side fragment execution (DESIGN.md, "Distributed execution").
//
// A member is more than a durable shard holder: when it adopts a catalog
// version it builds that generation's engine runtime — a partial view of an
// n-worker cluster in which it hosts exactly the worker whose index matches
// its position in the sorted member list, loaded with the rendezvous slice
// its local store already holds — and on frag-run it executes the
// coordinator's serialized rounds against that runtime, exchanging tuples
// directly with its peers over the engine's TCP transport and streaming
// only its result fragment back over the link as colbatch chunks. Neither
// the exchange nor the link resends: a lost frame fails the run
// retryably, and the serving layer runs the query again.
//
// The runtime is keyed on the catalog version: any membership or data
// change bumps the version, so a stale runtime can never serve a query
// planned against another generation — the member answers with a retryable
// error instead, and the serving layer retries after its own rebuild.

// fragChunkRows is how many result tuples travel per frag-rows frame —
// comfortably under colbatch.MaxRows while keeping frames small enough to
// interleave with other traffic.
const fragChunkRows = 8192

// fragRuntime is one generation's engine view on a member.
type fragRuntime struct {
	gen     int64
	members []string
	worker  int
	eng     *engine.Cluster
	tcp     *engine.TCPTransport
	addr    string // this member's exchange listener
}

func (rt *fragRuntime) close() {
	if rt != nil && rt.eng != nil {
		rt.eng.Close()
	}
}

// exchangeHost is the host the member binds its exchange listeners on:
// ListenAddr's host, or loopback when that is empty or a wildcard.
func (m *Member) exchangeHost() string {
	host := m.cfg.ListenAddr
	if h, _, err := net.SplitHostPort(host); err == nil {
		host = h
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		return "127.0.0.1"
	}
	return host
}

// startAdopt builds a version's runtime in its own goroutine and answers
// the version request when the build ends.
func (m *Member) startAdopt(conn net.Conn, req *msg) {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		reply := m.adopt(req)
		reply.ID = req.ID
		m.write(conn, reply)
	}()
}

// adopt retires the previous generation's runtime — closing it cancels its
// runs, so a fragment gang of the old membership fails retryably instead of
// waiting on a peer that is gone — then builds the engine runtime for the
// catalog version the member adopted and answers with its exchange address.
// A repeated request for the current generation answers with its runtime;
// a request for an older one is refused.
func (m *Member) adopt(req *msg) *msg {
	m.buildMu.Lock()
	defer m.buildMu.Unlock()
	m.fragMu.Lock()
	cur, hook := m.frag, m.beforeBuild
	if cur != nil && cur.gen >= req.CatalogVersion {
		m.fragMu.Unlock()
		if cur.gen == req.CatalogVersion {
			return &msg{Type: msgOK, Addr: cur.addr}
		}
		return &msg{Type: msgErr, Err: fmt.Sprintf("cluster: catalog v%d superseded by v%d",
			req.CatalogVersion, cur.gen)}
	}
	m.frag = nil
	m.fragMu.Unlock()
	cur.close()
	if !sort.StringsAreSorted(req.Members) {
		return &msg{Type: msgErr, Err: "cluster: version members not sorted"}
	}
	worker := sort.SearchStrings(req.Members, m.cfg.Name)
	if worker >= len(req.Members) || req.Members[worker] != m.cfg.Name {
		return &msg{Type: msgErr, Err: fmt.Sprintf("cluster: member %q not in membership %v",
			m.cfg.Name, req.Members)}
	}
	if hook != nil {
		if err := hook(); err != nil {
			return &msg{Type: msgErr, Err: err.Error()}
		}
	}
	rt, err := m.buildFragRuntime(req, worker)
	if err != nil {
		return &msg{Type: msgErr, Err: err.Error()}
	}
	m.fragMu.Lock()
	if m.fragDone {
		m.fragMu.Unlock()
		rt.close()
		return &msg{Type: msgErr, Err: fmt.Sprintf("cluster: member %q is shutting down", m.cfg.Name)}
	}
	m.frag = rt
	m.fragMu.Unlock()
	fragPrepares.Inc()
	m.cfg.Logf("cluster: member %q fragment runtime ready for catalog v%d (worker %d/%d, exchange %s)",
		m.cfg.Name, rt.gen, rt.worker, len(rt.members), rt.addr)
	return &msg{Type: msgOK, Addr: rt.addr}
}

// buildFragRuntime assembles a generation's engine: a one-hosted-worker
// partial cluster over a fresh TCP transport, loaded with this member's
// rendezvous slice of every relation. Loading mirrors OpenFromStore exactly
// — SlotsFor order, empty relations for slotless members — which is what
// makes the distributed answer byte-identical to the coordinator-local one:
// the segment bytes themselves were checksum-verified on arrival, so
// member-local slots equal the authoritative store's.
func (m *Member) buildFragRuntime(req *msg, worker int) (*fragRuntime, error) {
	n := len(req.Members)
	addrs := make([]string, n)
	addrs[worker] = net.JoinHostPort(m.exchangeHost(), "0")
	tcp, err := engine.NewTCPTransport(addrs, []int{worker})
	if err != nil {
		return nil, fmt.Errorf("cluster: member %q exchange listener: %w", m.cfg.Name, err)
	}
	eng := engine.NewPartialCluster(n, []int{worker}, tcp)
	for _, meta := range req.Metas {
		slots := SlotsFor(req.Members, meta.Name, meta.Slots, m.cfg.Name)
		var frag *rel.Relation
		if len(slots) == 0 {
			frag = rel.New(meta.Name, meta.Columns...)
		} else {
			frag, err = m.store.LoadSlots(meta.Name, slots)
			if err != nil {
				eng.Close()
				return nil, fmt.Errorf("cluster: member %q loading %s%v: %w", m.cfg.Name, meta.Name, slots, err)
			}
		}
		frags := make([]*rel.Relation, n)
		frags[worker] = frag
		eng.LoadFragments(meta.Name, frags)
	}
	return &fragRuntime{
		gen:     req.CatalogVersion,
		members: req.Members,
		worker:  worker,
		eng:     eng,
		tcp:     tcp,
		addr:    tcp.Addrs()[worker],
	}, nil
}

// startRun runs one frag-run in its own goroutine, so the command loop
// keeps answering heartbeats and other commands meanwhile. A frag-cancel
// with the run's ID, or closing the runtime, cancels it.
func (m *Member) startRun(conn net.Conn, req *msg) {
	ctx, cancel := context.WithCancel(context.Background())
	m.fragMu.Lock()
	m.runs[req.ID] = cancel
	m.fragMu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer func() {
			m.fragMu.Lock()
			delete(m.runs, req.ID)
			m.fragMu.Unlock()
			cancel()
		}()
		m.fragRun(ctx, conn, req)
	}()
}

// cancelRun cancels the frag-run with the given request ID, if any.
func (m *Member) cancelRun(id uint64) {
	m.fragMu.Lock()
	cancel := m.runs[id]
	m.fragMu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// fragRun executes one query's fragment and streams the result back: zero
// or more frag-rows frames, then frag-done, all carrying the request's ID.
func (m *Member) fragRun(ctx context.Context, conn net.Conn, req *msg) {
	reply := func(rm *msg) error {
		rm.ID = req.ID
		return m.write(conn, rm)
	}
	m.fragMu.Lock()
	rt := m.frag
	m.fragMu.Unlock()
	if rt == nil || rt.gen != req.CatalogVersion {
		have := int64(-1)
		if rt != nil {
			have = rt.gen
		}
		reply(&msg{Type: msgFragDone, Err: fmt.Sprintf(
			"cluster: member %q built catalog v%d, dispatch wants catalog v%d",
			m.cfg.Name, have, req.CatalogVersion), Retryable: true})
		return
	}
	if len(req.Addrs) != len(rt.members) {
		// A dispatcher of another membership at this version: the serving
		// layer is about to replace it.
		reply(&msg{Type: msgFragDone, Err: fmt.Sprintf(
			"cluster: frag-run carries %d exchange addrs for %d members", len(req.Addrs), len(rt.members)),
			Retryable: true})
		return
	}
	rounds, err := engine.DecodeRounds(req.Data)
	if err != nil {
		reply(&msg{Type: msgFragDone, Err: err.Error()})
		return
	}
	rt.tcp.SetPeerAddrs(req.Addrs)

	var opts engine.RunOpts
	if req.RunOpts != nil {
		opts = *req.RunOpts
	}
	out, report, err := rt.eng.RunRoundsOpts(ctx, rounds, opts)
	if err != nil {
		fragRunErrors.Inc()
		// A runtime closed mid-query means the generation moved under us —
		// retryable from the coordinator's perspective, like any resize.
		// Checking the engine directly catches the teardown errors that
		// wrap neither sentinel (e.g. "transport closed" from a Send that
		// raced the close).
		retry := engine.Retryable(err) || errors.Is(err, engine.ErrClosed) || rt.eng.Closed()
		reply(&msg{Type: msgFragDone, Err: err.Error(), Retryable: retry})
		return
	}

	var enc colbatch.Encoder
	for off := 0; off < len(out.Tuples); off += fragChunkRows {
		end := min(off+fragChunkRows, len(out.Tuples))
		data, err := enc.AppendTuples(nil, out.Tuples[off:end])
		if err != nil {
			reply(&msg{Type: msgFragDone, Err: fmt.Sprintf("cluster: encoding result chunk: %v", err)})
			return
		}
		if err := reply(&msg{Type: msgFragRows, Data: data}); err != nil {
			return // coordinator is gone; nothing left to tell it
		}
		fragRowsStreamed.Add(int64(end - off))
	}
	fragRunsServed.Inc()
	reply(&msg{Type: msgFragDone, Schema: out.Schema, Report: report})
}

// closeFragRuntime tears down the member's engine runtime (if any); a build
// still under way closes its runtime when it ends.
func (m *Member) closeFragRuntime() {
	m.fragMu.Lock()
	rt := m.frag
	m.frag = nil
	m.fragDone = true
	m.fragMu.Unlock()
	rt.close()
}
