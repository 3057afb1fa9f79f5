package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
	"sync"
	"time"

	"parajoin/internal/engine"
	"parajoin/internal/partstore"
	"parajoin/internal/trace"
	"parajoin/internal/wire"
)

// Member states as reported in Status.
const (
	StateJoining = "joining"
	StateAlive   = "alive"
	StateLeft    = "left"
	StateDead    = "dead"
)

// errLeft marks a member that announced a clean leave.
var errLeft = errors.New("cluster: member left")

// CoordinatorConfig tunes a Coordinator. The zero value gets defaults from
// NewCoordinator.
type CoordinatorConfig struct {
	// HeartbeatEvery is the ping interval per member (default 500ms);
	// CallTimeout bounds every control exchange and every frame write on a
	// member's link, heartbeats and fragment dispatch included (default
	// 10s) — a member that misses a heartbeat is declared dead. A
	// fragment's result stream is not bounded: queries run as long as they
	// run.
	HeartbeatEvery time.Duration
	CallTimeout    time.Duration
	// OnChange, when non-nil, runs after every committed membership change
	// (catalog bumped, partitions rebalanced) with the sorted names of the
	// live members. The serving layer hooks its engine rebuild here.
	OnChange func(members []string)
	// Tracer receives KindNet events for joins, leaves, deaths, handoffs,
	// and resizes. Nil disables cluster tracing.
	Tracer *trace.Tracer
	// Logf logs membership events; nil uses log.Printf.
	Logf func(format string, args ...any)
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 500 * time.Millisecond
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// slotKey identifies one partition independent of its content version.
type slotKey struct {
	rel  string
	slot int
}

// memberConn is the coordinator's handle on one member: its identity, the
// link (the member's one connection, which carries membership, partitions
// and fragments alike), and the coordinator's record of which partition
// versions the member holds (seeded from the hello inventory, updated as
// puts and releases succeed). The embedded wire.Link multiplexes requests
// by msg.ID and finishes each exactly once, through its handler: with the
// member's last reply, or with a retryable engine.ErrTransport naming the
// member when the link drops or the member leaves.
type memberConn struct {
	*wire.Link[msg]
	id      int
	name    string
	addr    string        // the link's remote address
	timeout time.Duration // the coordinator's CallTimeout
	state   string
	// holds maps slot → CRC of the segment the member is known to hold.
	// Guarded by the coordinator's mu.
	holds map[slotKey]uint32

	mu sync.Mutex
	// want is the last version request sent: the generation the member
	// should build. asking counts the version requests still open. built
	// is the generation the member last answered for.
	want   *msg
	asking int
	built  builtGen
}

// builtGen is one generation a member built its engine runtime for.
type builtGen struct {
	version int64
	members []string // sorted
	addr    string   // the runtime's exchange listener
}

// call performs one command/reply exchange, bounded by the CallTimeout.
func (mc *memberConn) call(m *msg) (*msg, error) {
	type result struct {
		m   *msg
		err error
	}
	ch := make(chan result, 1)
	id := mc.Send(m, func(r *msg, err error) { ch <- result{r, err} })
	timer := time.NewTimer(mc.timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.m, r.err
	case <-timer.C:
		mc.Forget(id)
		return nil, fmt.Errorf("%w: member %q did not answer %s within %v", engine.ErrTransport, mc.name, m.Type, mc.timeout)
	}
}

// adopt sends the member a version request, which has it build the
// generation req describes, and records the runtime the member reports
// whenever the answer comes: a build slower than the CallTimeout still
// lands. The channel receives the request's outcome.
func (mc *memberConn) adopt(req *msg) <-chan error {
	res := make(chan error, 1)
	mc.mu.Lock()
	if mc.want == nil || req.CatalogVersion >= mc.want.CatalogVersion {
		mc.want = req
	}
	mc.asking++
	mc.mu.Unlock()
	r := *req // Send stamps its own copy with the request ID
	mc.Send(&r, func(reply *msg, err error) {
		if err == nil && reply.Type != msgOK {
			err = fmt.Errorf("member %q: %s", mc.name, reply.Err)
		}
		mc.mu.Lock()
		mc.asking--
		if err == nil && req.CatalogVersion > mc.built.version {
			mc.built = builtGen{version: req.CatalogVersion, members: req.Members, addr: reply.Addr}
		}
		mc.mu.Unlock()
		res <- err
	})
	return res
}

// readopt repeats the last version request when the member has not built
// that generation and no request is open, i.e. when its build failed.
func (mc *memberConn) readopt() {
	mc.mu.Lock()
	want := mc.want
	again := want != nil && mc.asking == 0 && mc.built.version < want.CatalogVersion
	mc.mu.Unlock()
	if again {
		mc.adopt(want)
	}
}

// runtime returns the generation the member last built its runtime for.
func (mc *memberConn) runtime() builtGen {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.built
}

// Coordinator owns the authoritative partition store (every slot of every
// relation) and the cluster membership. Members join over TCP, are health-
// checked by heartbeat, and hold the slice of partitions rendezvous hashing
// assigns their name. Every membership or data change rebalances partitions
// (pushed from the authoritative store, skipped when the new owner already
// holds the bytes), bumps the persisted catalog version, has every member
// build that version's engine runtime, and invokes OnChange so the serving
// engine can re-derive its HyperCube shares for the new N.
type Coordinator struct {
	store *partstore.Store
	cfg   CoordinatorConfig

	mu      sync.Mutex
	ln      net.Listener
	members map[string]*memberConn // live members, by name
	gone    []wire.ClusterMember   // left/dead members, for status
	nextID  int
	closed  bool
	wg      sync.WaitGroup
	// rebalanceMu serializes whole rebalance batches (join + death can
	// overlap); it is always acquired before mu. assigned is the owner of
	// record per slot as of the last committed rebalance, guarded by
	// rebalanceMu — comparing against it distinguishes a genuine handoff
	// from a slot that simply stayed put.
	rebalanceMu sync.Mutex
	assigned    map[slotKey]string
}

// NewCoordinator creates a coordinator over an authoritative store.
func NewCoordinator(store *partstore.Store, cfg CoordinatorConfig) *Coordinator {
	c := &Coordinator{
		store:    store,
		cfg:      cfg.withDefaults(),
		members:  make(map[string]*memberConn),
		assigned: make(map[slotKey]string),
	}
	catalogVersionGauge.Set(store.CatalogVersion())
	return c
}

// Serve accepts member connections on ln until Close.
func (c *Coordinator) Serve(ln net.Listener) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		ln.Close()
		return errors.New("cluster: coordinator closed")
	}
	c.ln = ln
	c.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if c.isClosed() {
				return nil
			}
			return err
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handleJoin(conn)
		}()
	}
}

// Close stops serving and closes every member connection. Members see the
// drop and exit their run loops.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	ln := c.ln
	conns := make([]*memberConn, 0, len(c.members))
	for _, mc := range c.members {
		conns = append(conns, mc)
	}
	c.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, mc := range conns {
		mc.Close()
	}
	c.wg.Wait()
	return nil
}

// liveNames returns the sorted names of the live members. Callers hold c.mu
// or accept a racy snapshot.
func (c *Coordinator) liveNames() []string {
	names := make([]string, 0, len(c.members))
	for n := range c.members {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Members returns the sorted names of the live members.
func (c *Coordinator) Members() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveNames()
}

// holdsCRC reports the CRC the coordinator believes mc holds for a slot.
func (c *Coordinator) holdsCRC(mc *memberConn, k slotKey) (uint32, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	crc, ok := mc.holds[k]
	return crc, ok
}

// setHold records (or clears, crc == nil) a member's holding.
func (c *Coordinator) setHold(mc *memberConn, k slotKey, crc *uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if crc == nil {
		delete(mc.holds, k)
	} else {
		mc.holds[k] = *crc
	}
}

// handleJoin runs one member's lifecycle: hello, admission, rebalance,
// heartbeats, and eventually removal.
func (c *Coordinator) handleJoin(conn net.Conn) {
	hello, err := readMsg(conn, c.cfg.CallTimeout)
	if err != nil || hello.Type != msgHello || hello.Name == "" {
		writeMsg(conn, c.cfg.CallTimeout, &msg{Type: msgErr, Err: "cluster: malformed hello"})
		conn.Close()
		return
	}

	mc := &memberConn{
		name: hello.Name, addr: conn.RemoteAddr().String(), timeout: c.cfg.CallTimeout,
		state: StateJoining, holds: make(map[slotKey]uint32, len(hello.Inventory)),
	}
	for _, ref := range hello.Inventory {
		mc.holds[slotKey{ref.Rel, ref.Slot}] = ref.CRC
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	if _, dup := c.members[hello.Name]; dup {
		c.mu.Unlock()
		writeMsg(conn, c.cfg.CallTimeout, &msg{Type: msgErr,
			Err: fmt.Sprintf("cluster: member name %q already joined", hello.Name)})
		conn.Close()
		return
	}
	c.nextID++
	mc.id = c.nextID
	// Every frame write is bounded by the CallTimeout, a frag-run's reply
	// stream ends at its frag-done, and the member's leave ends the link.
	mc.Link = wire.NewLink(conn, wire.LinkConfig[msg]{
		WriteTimeout: c.cfg.CallTimeout,
		Last:         func(m *msg) bool { return m.Type != msgFragRows },
		Stray: func(m *msg) error {
			if m.Type == msgLeave {
				return errLeft
			}
			return nil
		},
		Failed: func(cause error) error {
			return fmt.Errorf("%w: link to member %q: %w", engine.ErrTransport, mc.name, cause)
		},
	})
	welcome := mc.Reserve() // the welcome is the first frame, ahead of any command
	c.members[hello.Name] = mc
	membersGauge.Set(int64(len(c.members)))
	c.mu.Unlock()

	if err := welcome(&msg{Type: msgWelcome, Member: mc.id, CatalogVersion: c.store.CatalogVersion()}); err != nil {
		c.remove(mc, StateDead, err)
		return
	}

	c.cfg.Logf("cluster: member %q (id %d) joined from %s (%d partitions held)",
		mc.name, mc.id, mc.addr, len(hello.Inventory))
	c.emit("cluster-join", mc.id, 0)

	if err := c.rebalance(); err != nil {
		c.cfg.Logf("cluster: rebalance after %q joined failed: %v", mc.name, err)
		c.remove(mc, StateDead, err)
		return
	}
	c.setState(mc, StateAlive)

	// Heartbeat until the member leaves, dies, or the coordinator closes.
	ticker := time.NewTicker(c.cfg.HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-mc.Done():
			err = mc.Err()
		case <-ticker.C:
			var reply *msg
			if reply, err = mc.call(&msg{Type: msgPing}); err == nil && reply.Type != msgPong {
				err = fmt.Errorf("cluster: member %q answered ping with %q", mc.name, reply.Type)
			}
		}
		switch {
		case err == nil:
			continue
		case errors.Is(err, errLeft):
			c.remove(mc, StateLeft, nil)
		case !c.isClosed():
			c.remove(mc, StateDead, err)
		}
		return
	}
}

func (c *Coordinator) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func (c *Coordinator) setState(mc *memberConn, state string) {
	c.mu.Lock()
	mc.state = state
	c.mu.Unlock()
}

// remove takes a member out of the membership and rebalances its slots onto
// the survivors. Closing the link fails every request still open on it.
func (c *Coordinator) remove(mc *memberConn, state string, cause error) {
	c.mu.Lock()
	if c.members[mc.name] != mc {
		c.mu.Unlock()
		return
	}
	delete(c.members, mc.name)
	mc.state = state
	c.gone = append(c.gone, wire.ClusterMember{ID: mc.id, Name: mc.name, Addr: mc.addr, State: state})
	membersGauge.Set(int64(len(c.members)))
	closed := c.closed
	c.mu.Unlock()
	mc.Close()
	if closed {
		return
	}
	if state == StateDead {
		deathsTotal.Inc()
		c.cfg.Logf("cluster: member %q (id %d) died: %v", mc.name, mc.id, cause)
		c.emit("cluster-dead", mc.id, 0)
	} else {
		c.cfg.Logf("cluster: member %q (id %d) left", mc.name, mc.id)
		c.emit("cluster-leave", mc.id, 0)
	}
	if err := c.rebalance(); err != nil {
		c.cfg.Logf("cluster: rebalance after losing %q failed: %v", mc.name, err)
	}
}

// Sync re-pushes partitions after the authoritative store changed (a load
// wrote new segments): every owner whose copy is stale receives the new
// bytes, the catalog version bumps, and OnChange fires.
func (c *Coordinator) Sync() error {
	return c.rebalance()
}

// rebalance brings every live member's holdings in line with the rendezvous
// assignment for the current membership, bumps the catalog version, and
// fires OnChange. A partition whose owner lacks the current bytes is pushed
// from the coordinator's authoritative store, unless the owner already
// holds the right checksum (the rejoin fast path). A previous owner drops
// its copy only after every new owner holds a verified one.
func (c *Coordinator) rebalance() error {
	c.rebalanceMu.Lock()
	defer c.rebalanceMu.Unlock()

	c.mu.Lock()
	live := make(map[string]*memberConn, len(c.members))
	for n, mc := range c.members {
		live[n] = mc
	}
	c.mu.Unlock()
	names := make([]string, 0, len(live))
	for n := range live {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return c.commit(names)
	}

	var firstErr error
	for _, e := range c.store.Relations() {
		meta := e.Meta()
		for _, pe := range e.Partitions {
			k := slotKey{e.Name, pe.Slot}
			owner := live[Owner(names, e.Name, pe.Slot)]
			newOwner := c.assigned[k] != owner.name
			if crc, ok := c.holdsCRC(owner, k); ok && crc == pe.CRC {
				// Owner already holds the current bytes. If ownership just
				// moved here, that is the rejoin fast path: a handoff whose
				// transfer the checksum match made unnecessary.
				if newOwner {
					handoffsCached.Inc()
					c.emit("cluster-handoff", owner.id, 0)
				}
				c.assigned[k] = owner.name
				continue
			}
			if err := c.push(meta, pe.Slot, owner); err != nil {
				c.cfg.Logf("cluster: moving %s/%d to %q: %v", e.Name, pe.Slot, owner.name, err)
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			c.assigned[k] = owner.name
		}
	}
	if firstErr != nil {
		return firstErr
	}

	// Release slots members still hold but no longer own.
	for _, name := range names {
		mc := live[name]
		c.mu.Lock()
		var stale []slotKey
		for k := range mc.holds {
			if Owner(names, k.rel, k.slot) != name {
				stale = append(stale, k)
			}
		}
		c.mu.Unlock()
		sort.Slice(stale, func(i, j int) bool {
			if stale[i].rel != stale[j].rel {
				return stale[i].rel < stale[j].rel
			}
			return stale[i].slot < stale[j].slot
		})
		for _, k := range stale {
			if _, err := mc.call(&msg{Type: msgRelease, Rel: k.rel, Slot: k.slot}); err == nil {
				c.setHold(mc, k, nil)
			}
		}
	}
	return c.commit(names)
}

// push sends one partition from the authoritative store to its owner; the
// owner's PutPartition verifies the checksum before it answers.
func (c *Coordinator) push(meta partstore.Meta, slot int, owner *memberConn) error {
	data, entry, err := c.store.PartitionBytes(meta.Name, slot)
	if err != nil {
		return err
	}
	reply, err := owner.call(&msg{Type: msgPut, Meta: &meta, Entry: &entry, Data: data})
	if err != nil {
		return err
	}
	if reply.Type != msgOK {
		return fmt.Errorf("cluster: %q refused %s/%d: %s", owner.name, meta.Name, slot, reply.Err)
	}
	c.setHold(owner, slotKey{meta.Name, slot}, &entry.CRC)
	handoffsDirect.Inc()
	rebalancedBytes.Add(entry.Bytes)
	c.emit("cluster-handoff", owner.id, entry.Bytes)
	return nil
}

// commit ends a rebalance batch: bump the catalog version, have every
// member adopt it and build the generation's engine runtime (recording each
// runtime's exchange address), update gauges, and fire OnChange with the
// final membership.
func (c *Coordinator) commit(names []string) error {
	v, err := c.store.BumpCatalog()
	if err != nil {
		return err
	}
	catalogVersionGauge.Set(v)
	resizesTotal.Inc()
	var metas []FragRelMeta
	for _, e := range c.store.Relations() {
		metas = append(metas, FragRelMeta{Name: e.Name, Columns: e.Columns, Slots: e.Slots})
	}
	c.mu.Lock()
	conns := make([]*memberConn, 0, len(names))
	for _, n := range names {
		if mc := c.members[n]; mc != nil {
			conns = append(conns, mc)
		}
	}
	c.mu.Unlock()
	// Wait up to a CallTimeout for the builds. A slower one is recorded
	// when it answers, and until then dispatch refuses, retryably.
	req := &msg{Type: msgVersion, CatalogVersion: v, Members: names, Metas: metas}
	results := make([]<-chan error, len(conns))
	for i, mc := range conns {
		results[i] = mc.adopt(req)
	}
	wait, cancel := context.WithTimeout(context.Background(), c.cfg.CallTimeout)
	defer cancel()
	for i, res := range results {
		select {
		case err := <-res:
			if err != nil {
				c.cfg.Logf("cluster: member %q did not build catalog v%d: %v", conns[i].name, v, err)
			}
		case <-wait.Done():
			c.cfg.Logf("cluster: member %q still builds catalog v%d after %v", conns[i].name, v, c.cfg.CallTimeout)
		}
	}
	c.cfg.Logf("cluster: catalog v%d, %d member(s): %v", v, len(names), names)
	c.emit("cluster-resize", len(names), v)
	if c.cfg.OnChange != nil {
		c.cfg.OnChange(names)
	}
	return nil
}

// emit sends one KindNet trace event (nil-tracer safe).
func (c *Coordinator) emit(name string, worker int, n int64) {
	c.cfg.Tracer.Emit(trace.Event{
		Kind: trace.KindNet, Run: -1, Worker: worker, Exchange: -1,
		Name: name, Tuples: n,
	})
	c.cfg.Tracer.Flush()
}

// Status snapshots the cluster for the \cluster shell command and the
// OpCluster wire frame: the catalog version, the members (live first, then
// departed), and the partition map. The caller fills in Workers.
func (c *Coordinator) Status() *wire.ClusterInfo {
	c.mu.Lock()
	names := c.liveNames()
	st := &wire.ClusterInfo{CatalogVersion: c.store.CatalogVersion()}
	for _, n := range names {
		mc := c.members[n]
		st.Members = append(st.Members, wire.ClusterMember{
			ID: mc.id, Name: mc.name, Addr: mc.addr, State: mc.state,
		})
	}
	st.Members = append(st.Members, c.gone...)
	c.mu.Unlock()

	slotsOf := make(map[string]int, len(names))
	for _, e := range c.store.Relations() {
		for _, pe := range e.Partitions {
			owner := ""
			if len(names) > 0 {
				owner = Owner(names, e.Name, pe.Slot)
				slotsOf[owner]++
			}
			st.Partitions = append(st.Partitions, wire.PartitionInfo{
				Relation: e.Name, Slot: pe.Slot, Owner: owner,
				Tuples: pe.Tuples, Bytes: pe.Bytes,
			})
		}
	}
	for i := range st.Members {
		st.Members[i].Slots = slotsOf[st.Members[i].Name]
	}
	return st
}
