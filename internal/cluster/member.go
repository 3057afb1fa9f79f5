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
	// ListenAddr's host is where the member binds each generation's
	// exchange listener, at a fresh port (default 127.0.0.1; a port, if
	// given, is ignored).
	ListenAddr string
	// CallTimeout bounds the join handshake and every frame write (default
	// 10s).
	CallTimeout time.Duration
	// JoinBackoff is the pause between joinRetries redials of the
	// coordinator when the join is refused or fails — e.g. a replacement
	// starting before the coordinator has declared its predecessor dead
	// (default 250ms).
	JoinBackoff time.Duration
	// Logf logs member events; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// joinRetries is how many times a member redials the coordinator after a
// refused or failed join before giving up.
const joinRetries = 20

func (c MemberConfig) withDefaults() MemberConfig {
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
// store, answers heartbeats, and runs operator fragments — all over the one
// connection it dialed.
type Member struct {
	store *partstore.Store
	cfg   MemberConfig

	mu     sync.Mutex
	conn   net.Conn // the link to the coordinator
	closed bool
	wg     sync.WaitGroup
	wmu    sync.Mutex // serializes frame writes on conn

	version atomic.Int64

	// Fragment execution (fragment.go): the current generation's engine
	// runtime, built when a catalog version is adopted after the old one is
	// retired (closing it cancels its in-flight runs), and the cancel
	// functions of the in-flight frag-runs by request ID. fragDone
	// is set once the member shuts down; a build that ends later closes
	// its runtime at once. buildMu serializes builds.
	fragMu   sync.Mutex
	frag     *fragRuntime
	fragDone bool
	runs     map[uint64]context.CancelFunc
	buildMu  sync.Mutex
	// beforeBuild, when set, runs ahead of each runtime build; tests use
	// it to slow or fail builds. Guarded by fragMu.
	beforeBuild func() error
}

// NewMember creates a member over its local store.
func NewMember(store *partstore.Store, cfg MemberConfig) (*Member, error) {
	cfg = cfg.withDefaults()
	if cfg.Name == "" || cfg.CoordinatorAddr == "" {
		return nil, errors.New("cluster: member needs a name and a coordinator address")
	}
	return &Member{store: store, cfg: cfg, runs: make(map[uint64]context.CancelFunc)}, nil
}

// CatalogVersion returns the last catalog version the coordinator announced.
func (m *Member) CatalogVersion() int64 { return m.version.Load() }

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
	// Losing the coordinator orphans every in-flight fragment: the
	// dispatcher that asked for it lives (or lived) next to the
	// coordinator, so cancel rather than compute for nobody.
	defer m.closeFragRuntime()

	conn, welcome, err := m.join(ctx)
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
	m.version.Store(welcome.CatalogVersion)
	m.store.SetCatalogVersion(welcome.CatalogVersion)
	m.cfg.Logf("cluster: joined %s as %q (id %d, catalog v%d)",
		m.cfg.CoordinatorAddr, m.cfg.Name, welcome.Member, welcome.CatalogVersion)

	// Leave cleanly when the context ends: send "leave" and let the
	// coordinator close the connection once it has read it. The read
	// deadline bounds the wait in case the coordinator is already gone.
	// The goroutine also keeps wg above zero while the command loop adds
	// fragment runs to it.
	stop := make(chan struct{})
	defer close(stop)
	defer conn.Close()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		select {
		case <-ctx.Done():
			m.write(conn, &msg{Type: msgLeave})
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
	conn := m.conn
	m.mu.Unlock()
	if conn != nil {
		conn.Close()
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
func (m *Member) join(ctx context.Context) (net.Conn, *msg, error) {
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
		hello := &msg{Type: msgHello, Name: m.cfg.Name, Inventory: m.inventory()}
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

// commandLoop answers coordinator commands until the connection dies. A
// frag-run and a version's runtime build run in their own goroutines, so
// heartbeats keep being answered; every other command is answered in turn.
func (m *Member) commandLoop(conn net.Conn) error {
	for {
		cmd, err := readMsg(conn, 0) // commands may be far apart; no deadline
		if err != nil {
			return err
		}
		switch cmd.Type {
		case msgFragRun:
			m.startRun(conn, cmd)
		case msgVersion:
			// A repeated request can arrive after a newer one; the
			// version only moves forward.
			if cmd.CatalogVersion > m.version.Load() {
				m.version.Store(cmd.CatalogVersion)
				m.store.SetCatalogVersion(cmd.CatalogVersion)
			}
			m.startAdopt(conn, cmd)
		case msgFragCancel:
			m.cancelRun(cmd.ID)
		default:
			reply := m.handle(cmd)
			reply.ID = cmd.ID
			if err := m.write(conn, reply); err != nil {
				return err
			}
		}
	}
}

// write sends one frame on the link; replies, result chunks and the leave
// frame all serialize here.
func (m *Member) write(conn net.Conn, r *msg) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	return writeMsg(conn, m.cfg.CallTimeout, r)
}

// handle executes one coordinator command and returns its reply.
func (m *Member) handle(cmd *msg) *msg {
	switch cmd.Type {
	case msgPing:
		return &msg{Type: msgPong}

	case msgPut:
		if cmd.Meta == nil || cmd.Entry == nil {
			return &msg{Type: msgErr, Err: "cluster: put without meta/entry"}
		}
		// PutPartition verifies the segment's checksum before storing it.
		if err := m.store.PutPartition(*cmd.Meta, *cmd.Entry, cmd.Data); err != nil {
			return &msg{Type: msgErr, Err: err.Error()}
		}
		return &msg{Type: msgOK}

	case msgRelease:
		if err := m.store.DropPartition(cmd.Rel, cmd.Slot); err != nil {
			return &msg{Type: msgErr, Err: err.Error()}
		}
		return &msg{Type: msgOK}

	default:
		return &msg{Type: msgErr, Err: fmt.Sprintf("cluster: unknown command %q", cmd.Type)}
	}
}
