package cluster

import (
	"fmt"
	"net"
	"time"

	"parajoin/internal/engine"
	"parajoin/internal/partstore"
	"parajoin/internal/wire"
)

// The cluster control protocol is internal/wire frames carrying msg values,
// msg.Data as the raw payload. Two kinds of connections speak it:
//
//   - The membership connection: a member dials the coordinator, sends
//     "hello", receives "welcome", and from then on the coordinator drives
//     a strict request/response exchange ("ping", "put", "handoff",
//     "release", "version") with the member answering each command. The
//     one member-initiated frame is "leave", sent in place of a reply when
//     the member shuts down cleanly.
//
//   - The transfer connection: a donor member (or the coordinator) dials a
//     member's cluster listener and sends a single "put" carrying one
//     partition's segment bytes; the recipient verifies the checksum,
//     persists it, answers "ok", and the connection closes.
const (
	msgHello   = "hello"   // member → coordinator: join (Name, Addr, Inventory)
	msgWelcome = "welcome" // coordinator → member: accepted (ID, CatalogVersion)
	msgPing    = "ping"    // coordinator → member: heartbeat
	msgPong    = "pong"    // member → coordinator: heartbeat reply
	msgPut     = "put"     // push one partition (Meta, Entry, Data)
	msgHandoff = "handoff" // coordinator → donor: stream Rel/Slot to To
	msgDone    = "done"    // donor → coordinator: recipient acked the put
	msgRelease = "release" // coordinator → donor: drop Rel/Slot (ownership moved)
	msgVersion = "version" // coordinator → member: adopt CatalogVersion
	msgLeave   = "leave"   // member → coordinator: clean shutdown
	msgOK      = "ok"      // generic success reply
	msgErr     = "err"     // generic failure reply (Err)

	// Fragment dispatch (distributed execution). These travel on transfer
	// connections, never on the membership connection: a fragment runs for
	// as long as the query does, and the membership connection's strict
	// request/response discipline (and heartbeat cadence) must not stall
	// behind it.
	msgFragPrepare = "frag-prepare" // coordinator → member: build the generation's engine runtime
	msgFragReady   = "frag-ready"   // member → coordinator: runtime up (Addr = exchange listener)
	msgFragRun     = "frag-run"     // coordinator → member: execute serialized rounds
	msgFragRows    = "frag-rows"    // member → coordinator: one colbatch chunk of the result fragment
	msgFragDone    = "frag-done"    // member → coordinator: fragment finished (Schema, Report | Err)
)

// PartRef identifies one partition replica by content: a member's hello
// carries its full inventory so the coordinator can skip re-transferring
// partitions the member already holds with the right checksum (the rejoin
// fast path).
type PartRef struct {
	Rel  string `json:"rel"`
	Slot int    `json:"slot"`
	CRC  uint32 `json:"crc32"`
}

// msg is one control-protocol frame. Fields are a union over the message
// types; Type decides which are meaningful.
type msg struct {
	Type string `json:"type"`

	// hello / welcome.
	Name      string    `json:"name,omitempty"`
	Addr      string    `json:"addr,omitempty"`
	Inventory []PartRef `json:"inventory,omitempty"`
	ID        int       `json:"id,omitempty"`

	// version (and welcome): the catalog version to adopt.
	CatalogVersion int64 `json:"catalog_version,omitempty"`

	// put. Data, the frame's payload, is the segment bytes of a put, the
	// serialized rounds of a frag-run, or one colbatch chunk of frag-rows.
	Meta  *partstore.Meta           `json:"meta,omitempty"`
	Entry *partstore.PartitionEntry `json:"entry,omitempty"`
	Data  []byte                    `json:"-"`

	// handoff / release.
	Rel  string `json:"rel,omitempty"`
	Slot int    `json:"slot,omitempty"`
	To   string `json:"to,omitempty"`

	// frag-prepare: the generation's membership and relation catalog.
	// CatalogVersion doubles as the generation id; Members is the sorted
	// member list (worker i of the plan is Members[i]); Metas describes
	// every relation so members can instantiate empty fragments for
	// relations they hold no slots of.
	Members []string      `json:"members,omitempty"`
	Metas   []FragRelMeta `json:"metas,omitempty"`

	// frag-run: the rounds (in Data) plus everything the member's engine
	// needs to agree with its peers — the full exchange-address vector
	// (Addrs[i] is Members[i]'s listener) and the run options, whose Epoch
	// pins the query's epoch block.
	Addrs   []string        `json:"addrs,omitempty"`
	RunOpts *engine.RunOpts `json:"run_opts,omitempty"`

	// frag-done.
	Schema    []string       `json:"schema,omitempty"`
	Report    *engine.Report `json:"report,omitempty"`
	Retryable bool           `json:"retryable,omitempty"`

	// err (and frag-done failures).
	Err string `json:"err,omitempty"`
}

// Payload and SetPayload implement wire.Payloader over Data.
func (m msg) Payload() []byte      { return m.Data }
func (m *msg) SetPayload(b []byte) { m.Data = b }

// FragRelMeta describes one relation of the fragment catalog: enough for a
// member to load its rendezvous slice (or instantiate an empty fragment with
// the right schema when it owns no slots).
type FragRelMeta struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Slots   int      `json:"slots"`
}

// writeMsg / readMsg wrap the wire framing with the protocol's deadline
// discipline: every control exchange is bounded, so a hung peer surfaces as
// an error instead of wedging the coordinator.
func writeMsg(conn net.Conn, timeout time.Duration, m *msg) error {
	if timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(timeout))
		defer conn.SetWriteDeadline(time.Time{})
	}
	return wire.WriteFrame(conn, m)
}

func readMsg(conn net.Conn, timeout time.Duration) (*msg, error) {
	if timeout > 0 {
		conn.SetReadDeadline(time.Now().Add(timeout))
		defer conn.SetReadDeadline(time.Time{})
	}
	m := new(msg)
	if err := wire.ReadFrame(conn, m); err != nil {
		return nil, err
	}
	return m, nil
}

// transfer dials a member's cluster listener for one bounded request/reply
// exchange: put → ok, or frag-prepare → frag-ready.
func transfer(addr string, timeout time.Duration, req *msg) (*msg, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dialing %s: %w", addr, err)
	}
	defer conn.Close()
	if err := writeMsg(conn, timeout, req); err != nil {
		return nil, fmt.Errorf("sending %s to %s: %w", req.Type, addr, err)
	}
	reply, err := readMsg(conn, timeout)
	if err != nil {
		return nil, fmt.Errorf("waiting for %s to answer %s: %w", addr, req.Type, err)
	}
	return reply, nil
}
