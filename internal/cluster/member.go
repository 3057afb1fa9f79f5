package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"parajoin/internal/fault"
	"parajoin/internal/partstore"
)

// MemberConfig tunes a Member. Name and CoordinatorAddr are required.
type MemberConfig struct {
	// Name is the member's stable identity: partition ownership is a pure
	// function of the live member NAMES, so a replacement process started
	// with the same name (and data directory) re-owns exactly the slice its
	// predecessor held and skips re-receiving partitions whose checksums
	// still match.
	Name string
	// CoordinatorAddr is the coordinator's cluster listen address.
	CoordinatorAddr string
	// ListenAddr is this member's transfer listener bind address (default
	// "127.0.0.1:0"); donors and the coordinator dial it to push partitions.
	ListenAddr string
	// CallTimeout bounds every control exchange (default 10s).
	CallTimeout time.Duration
	// JoinBackoff is the pause between joinRetries redials of the
	// coordinator when the join is refused or fails — e.g. a replacement
	// starting before the coordinator has declared its predecessor dead
	// (default 250ms).
	JoinBackoff time.Duration
	// Injector, when non-nil, is consulted at the handoff fault point: after
	// the recipient acked a donated partition but before this member reports
	// "done" to the coordinator — the crash window between segment send and
	// ownership release. A crash rule firing there kills the member's
	// control connection, exactly like a process death at that instant.
	Injector *fault.Injector
	// Logf logs member events; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// joinRetries is how many times a member redials the coordinator after a
// refused or failed join before giving up.
const joinRetries = 20

func (c MemberConfig) withDefaults() MemberConfig {
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 10 * time.Second
	}
	if c.JoinBackoff <= 0 {
		c.JoinBackoff = 250 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Member is a durable data node of an elastic cluster: it joins the
// coordinator, persists the partitions assigned to its name in its local
// store, answers heartbeats, donates partitions during handoffs, and
// releases ownership only after the recipient's checksum-verified ack.
type Member struct {
	store *partstore.Store
	cfg   MemberConfig

	mu     sync.Mutex
	conn   net.Conn // control connection to the coordinator
	ln     net.Listener
	closed bool
	wg     sync.WaitGroup
	wmu    sync.Mutex // serializes writes on conn (replies vs. the leave frame)

	id      atomic.Int64
	version atomic.Int64
	crashed atomic.Bool // the injector fired; the member is "dead"

	// Fragment execution (fragment.go): the current generation's engine
	// runtime, built on frag-prepare and swapped (closing the old one, which
	// cancels its in-flight runs) when the catalog version moves.
	fragMu sync.Mutex
	frag   *fragRuntime
}

// NewMember creates a member over its local store.
func NewMember(store *partstore.Store, cfg MemberConfig) (*Member, error) {
	cfg = cfg.withDefaults()
	if cfg.Name == "" || cfg.CoordinatorAddr == "" {
		return nil, errors.New("cluster: member needs a name and a coordinator address")
	}
	return &Member{store: store, cfg: cfg}, nil
}

// Store returns the member's local store.
func (m *Member) Store() *partstore.Store { return m.store }

// ID returns the id the coordinator assigned (0 before the join completes).
func (m *Member) ID() int { return int(m.id.Load()) }

// CatalogVersion returns the last catalog version the coordinator announced.
func (m *Member) CatalogVersion() int64 { return m.version.Load() }

// Addr returns the member's transfer listener address ("" before Run).
func (m *Member) Addr() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ln == nil {
		return ""
	}
	return m.ln.Addr().String()
}

// inventory lists every partition the local store holds — the hello payload
// that lets the coordinator skip re-transferring what a rejoining member
// already has.
func (m *Member) inventory() []PartRef {
	var refs []PartRef
	for _, e := range m.store.Relations() {
		for _, pe := range e.Partitions {
			refs = append(refs, PartRef{Rel: e.Name, Slot: pe.Slot, CRC: pe.CRC})
		}
	}
	return refs
}

// Run joins the cluster and serves until the context is canceled, Close is
// called, or the coordinator connection is lost. A clean cancellation sends
// "leave" so the coordinator rebalances immediately instead of waiting out
// a heartbeat.
func (m *Member) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", m.cfg.ListenAddr)
	if err != nil {
		return fmt.Errorf("cluster: member transfer listener: %w", err)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		ln.Close()
		return errors.New("cluster: member closed")
	}
	m.ln = ln
	m.mu.Unlock()
	defer ln.Close()
	// Losing the coordinator orphans any in-flight fragment: the dispatcher
	// that asked for it lives (or lived) next to the coordinator, so cancel
	// rather than compute for nobody. LIFO ordering runs this before the
	// listener close above is observed by peers.
	defer m.closeFragRuntime()

	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.serveTransfers(ln)
	}()

	conn, welcome, err := m.join(ctx, ln.Addr().String())
	if err != nil {
		return err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		conn.Close()
		return errors.New("cluster: member closed")
	}
	m.conn = conn
	m.mu.Unlock()
	m.id.Store(int64(welcome.ID))
	m.version.Store(welcome.CatalogVersion)
	m.store.SetCatalogVersion(welcome.CatalogVersion)
	m.cfg.Logf("cluster: joined %s as %q (id %d, catalog v%d)",
		m.cfg.CoordinatorAddr, m.cfg.Name, welcome.ID, welcome.CatalogVersion)

	// Leave cleanly when the context ends: send "leave" and let the
	// coordinator close the connection once it has read it (it treats the
	// frame as the reply to its in-flight or next command). The read
	// deadline bounds the wait in case the coordinator is already gone.
	stop := make(chan struct{})
	defer close(stop)
	defer conn.Close()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		select {
		case <-ctx.Done():
			m.wmu.Lock()
			writeMsg(conn, m.cfg.CallTimeout, &msg{Type: msgLeave})
			m.wmu.Unlock()
			conn.SetReadDeadline(time.Now().Add(m.cfg.CallTimeout))
		case <-stop:
		}
	}()

	err = m.commandLoop(conn)
	if ctx.Err() != nil || m.isClosed() {
		return nil
	}
	return err
}

func (m *Member) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Close tears the member down without waiting for Run's context.
func (m *Member) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	conn, ln := m.conn, m.ln
	m.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	if ln != nil {
		ln.Close()
	}
	// Closing the runtime cancels in-flight fragment runs (they answer the
	// dispatcher with a retryable frag-done), which is what lets wg.Wait
	// return while a query is mid-flight.
	m.closeFragRuntime()
	m.wg.Wait()
	return nil
}

// join dials the coordinator and completes the hello/welcome exchange,
// retrying while the coordinator is unreachable or still thinks a
// predecessor with this name is alive.
func (m *Member) join(ctx context.Context, listenAddr string) (net.Conn, *msg, error) {
	var lastErr error
	for attempt := 0; attempt <= joinRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(m.cfg.JoinBackoff):
			case <-ctx.Done():
				return nil, nil, context.Cause(ctx)
			}
		}
		conn, err := net.DialTimeout("tcp", m.cfg.CoordinatorAddr, m.cfg.CallTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		hello := &msg{Type: msgHello, Name: m.cfg.Name, Addr: listenAddr, Inventory: m.inventory()}
		if err := writeMsg(conn, m.cfg.CallTimeout, hello); err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		welcome, err := readMsg(conn, m.cfg.CallTimeout)
		if err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		if welcome.Type != msgWelcome {
			conn.Close()
			lastErr = fmt.Errorf("cluster: join refused: %s", welcome.Err)
			continue
		}
		return conn, welcome, nil
	}
	return nil, nil, fmt.Errorf("cluster: joining %s: %w", m.cfg.CoordinatorAddr, lastErr)
}

// commandLoop answers coordinator commands until the connection dies.
func (m *Member) commandLoop(conn net.Conn) error {
	for {
		cmd, err := readMsg(conn, 0) // commands may be far apart; no deadline
		if err != nil {
			return err
		}
		reply := m.handle(cmd)
		if reply == nil {
			// The fault injector "killed" this member mid-handoff: drop the
			// connection without answering, exactly like a process death.
			conn.Close()
			return fmt.Errorf("%w: member %q crashed at handoff barrier", fault.ErrInjected, m.cfg.Name)
		}
		m.wmu.Lock()
		err = writeMsg(conn, m.cfg.CallTimeout, reply)
		m.wmu.Unlock()
		if err != nil {
			return err
		}
	}
}

// handle executes one coordinator command. A nil reply means the fault
// injector decided this member dies here.
func (m *Member) handle(cmd *msg) *msg {
	switch cmd.Type {
	case msgPing:
		return &msg{Type: msgPong}

	case msgPut:
		return m.put(cmd)

	case msgRelease:
		if err := m.store.DropPartition(cmd.Rel, cmd.Slot); err != nil {
			return &msg{Type: msgErr, Err: err.Error()}
		}
		return &msg{Type: msgOK}

	case msgVersion:
		m.version.Store(cmd.CatalogVersion)
		m.store.SetCatalogVersion(cmd.CatalogVersion)
		return &msg{Type: msgOK}

	case msgHandoff:
		return m.donate(cmd)

	default:
		return &msg{Type: msgErr, Err: fmt.Sprintf("cluster: unknown command %q", cmd.Type)}
	}
}

// put stores one pushed partition; PutPartition verifies its checksum.
func (m *Member) put(req *msg) *msg {
	if req.Meta == nil || req.Entry == nil {
		return &msg{Type: msgErr, Err: "cluster: put without meta/entry"}
	}
	if err := m.store.PutPartition(*req.Meta, *req.Entry, req.Data); err != nil {
		return &msg{Type: msgErr, Err: err.Error()}
	}
	return &msg{Type: msgOK}
}

// donate streams one partition to its new owner: read the verified bytes
// from the local store, push them, and report "done" only after the
// recipient's checksum-verified ack. The fault point sits exactly between
// that ack and the report — the window where a crash leaves the partition
// transferred but the ownership move unannounced. The coordinator then
// falls back to pushing from its authoritative store; PutPartition's
// idempotence makes the duplicate harmless, and the assignment function
// keeps ownership unique, so the crash loses and duplicates nothing.
func (m *Member) donate(cmd *msg) *msg {
	data, entry, err := m.store.PartitionBytes(cmd.Rel, cmd.Slot)
	if err != nil {
		return &msg{Type: msgErr, Err: err.Error()}
	}
	meta := m.store.Entry(cmd.Rel).Meta()
	reply, err := transfer(cmd.To, m.cfg.CallTimeout, &msg{Type: msgPut, Meta: &meta, Entry: &entry, Data: data})
	if err == nil && reply.Type != msgOK {
		err = fmt.Errorf("%s refused %s/%d: %s", cmd.To, meta.Name, entry.Slot, reply.Err)
	}
	if err != nil {
		return &msg{Type: msgErr, Err: "cluster: " + err.Error()}
	}
	if inj := m.cfg.Injector; inj != nil {
		if err := inj.CloseSend(0, m.ID()); err != nil {
			m.cfg.Logf("cluster: %v", err)
			m.crashed.Store(true)
			return nil // die between the segment send and the ownership release
		}
	}
	return &msg{Type: msgDone}
}

// Crashed reports whether the fault injector killed this member.
func (m *Member) Crashed() bool { return m.crashed.Load() }

// serveTransfers accepts connections on the member's transfer listener.
// Each connection carries either one partition push ("put" → ok) or one
// fragment exchange ("frag-prepare" → frag-ready, or "frag-run" → frag-rows*
// frag-done); the first frame decides which, and the connection closes when
// the exchange completes.
func (m *Member) serveTransfers(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			defer conn.Close()
			req, err := readMsg(conn, m.cfg.CallTimeout)
			if err != nil {
				return
			}
			var reply *msg
			switch req.Type {
			case msgPut:
				reply = m.put(req)
			case msgFragPrepare:
				reply = m.handleFragPrepare(req)
			case msgFragRun:
				m.handleFragRun(conn, req) // streams its own replies
				return
			default:
				reply = &msg{Type: msgErr, Err: fmt.Sprintf("cluster: unexpected transfer frame %q", req.Type)}
			}
			writeMsg(conn, m.cfg.CallTimeout, reply)
		}()
	}
}
