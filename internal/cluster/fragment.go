package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"

	"parajoin/internal/colbatch"
	"parajoin/internal/engine"
	"parajoin/internal/rel"
)

// Member-side fragment execution (DESIGN.md, "Distributed execution").
//
// A member is more than a durable shard holder: on frag-prepare it builds a
// per-generation engine runtime — a partial view of an n-worker cluster in
// which it hosts exactly the worker whose index matches its position in the
// sorted member list, loaded with the rendezvous slice its local store
// already holds — and on frag-run it executes the coordinator's serialized
// rounds against that runtime, exchanging tuples directly with its peers
// over the engine's self-healing TCP transport and streaming only its
// result fragment back to the coordinator as colbatch chunks.
//
// The runtime is keyed on the catalog version: any membership or data
// change bumps the version, so a stale runtime can never serve a query
// planned against a newer generation — the member answers with a retryable
// error instead and the coordinator's next dispatch (after its own rebuild)
// re-prepares it.

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

// exchangeHost derives the bind host for the member's exchange listener from
// its transfer listener, so both are reachable at the same interface.
func (m *Member) exchangeHost() string {
	m.mu.Lock()
	ln := m.ln
	m.mu.Unlock()
	if ln == nil {
		return "127.0.0.1"
	}
	host, _, err := net.SplitHostPort(ln.Addr().String())
	if err != nil || host == "" || host == "::" || host == "0.0.0.0" {
		return "127.0.0.1"
	}
	return host
}

// handleFragPrepare builds (or confirms) the engine runtime for one
// generation and replies with the member's exchange-listener address.
func (m *Member) handleFragPrepare(req *msg) *msg {
	if len(req.Members) == 0 {
		return &msg{Type: msgErr, Err: "cluster: frag-prepare without members"}
	}
	if !sort.StringsAreSorted(req.Members) {
		return &msg{Type: msgErr, Err: "cluster: frag-prepare members not sorted"}
	}
	worker := sort.SearchStrings(req.Members, m.cfg.Name)
	if worker >= len(req.Members) || req.Members[worker] != m.cfg.Name {
		return &msg{Type: msgErr, Err: fmt.Sprintf("cluster: member %q not in fragment membership %v",
			m.cfg.Name, req.Members), Retryable: true}
	}
	if v := m.store.CatalogVersion(); v != req.CatalogVersion {
		// The coordinator's commit broadcast hasn't landed here (or a newer
		// one already has). Either way the dispatcher should retry after its
		// own generation settles.
		return &msg{Type: msgErr, Err: fmt.Sprintf("cluster: member %q at catalog v%d, dispatch wants v%d",
			m.cfg.Name, v, req.CatalogVersion), Retryable: true}
	}

	m.fragMu.Lock()
	defer m.fragMu.Unlock()
	// The catalog version should imply the membership, but trust and verify.
	if rt := m.frag; rt != nil && rt.gen == req.CatalogVersion && slices.Equal(rt.members, req.Members) {
		return &msg{Type: msgFragReady, Addr: rt.addr}
	}

	rt, err := m.buildFragRuntime(req, worker)
	if err != nil {
		return &msg{Type: msgErr, Err: err.Error()}
	}
	old := m.frag
	m.frag = rt
	old.close()
	fragPrepares.Inc()
	m.cfg.Logf("cluster: member %q fragment runtime ready for catalog v%d (worker %d/%d, exchange %s)",
		m.cfg.Name, rt.gen, rt.worker, len(rt.members), rt.addr)
	return &msg{Type: msgFragReady, Addr: rt.addr}
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

// handleFragRun executes one query's fragment and streams the result back
// on the same connection: zero or more frag-rows frames, then frag-done.
// Unlike every other transfer exchange it owns the connection for the
// query's whole duration; the connection doubles as the cancellation
// signal — the dispatcher sends nothing after frag-run, so any read
// completing early means the coordinator hung up (query canceled, member
// declared dead, coordinator died) and the run is aborted.
func (m *Member) handleFragRun(conn net.Conn, req *msg) {
	reply := func(rm *msg) {
		writeMsg(conn, m.cfg.CallTimeout, rm)
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
			"cluster: member %q has fragment runtime v%d, dispatch wants v%d (re-prepare)",
			m.cfg.Name, have, req.CatalogVersion), Retryable: true})
		return
	}
	if len(req.Addrs) != len(rt.members) {
		reply(&msg{Type: msgFragDone, Err: fmt.Sprintf(
			"cluster: frag-run carries %d exchange addrs for %d members", len(req.Addrs), len(rt.members))})
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

	// The watcher turns a dropped dispatcher connection into a run
	// cancellation. It reads at most one byte (the protocol sends none), so
	// it can never consume a real frame.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		buf := make([]byte, 1)
		conn.Read(buf)
		cancel()
	}()

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
		if err := writeMsg(conn, m.cfg.CallTimeout, &msg{Type: msgFragRows, Data: data}); err != nil {
			return // coordinator is gone; nothing left to tell it
		}
		fragRowsStreamed.Add(int64(end - off))
	}
	fragRunsServed.Inc()
	reply(&msg{Type: msgFragDone, Schema: out.Schema, Report: report})
}

// closeFragRuntime tears down the member's engine runtime (if any).
func (m *Member) closeFragRuntime() {
	m.fragMu.Lock()
	rt := m.frag
	m.frag = nil
	m.fragMu.Unlock()
	rt.close()
}
