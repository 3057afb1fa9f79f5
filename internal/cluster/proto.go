package cluster

import (
	"net"
	"time"

	"parajoin/internal/engine"
	"parajoin/internal/partstore"
	"parajoin/internal/wire"
)

// The cluster control protocol is internal/wire frames carrying msg values,
// msg.Data as the raw payload, over one connection per member: the member
// dials the coordinator, sends "hello" and receives "welcome". From then on
// the coordinator sends commands ("ping", "put", "release", "version",
// "frag-run", "frag-cancel"), each stamped with a fresh request ID, and the
// member answers with frames carrying the same ID — one reply for most
// commands, zero or more "frag-rows" and then "frag-done" for a frag-run,
// nothing for a frag-cancel. Many requests may be open at once and replies
// arrive in any order: a heartbeat is answered while a fragment streams.
// The one member-initiated frame is "leave", sent when the member shuts
// down cleanly.
const (
	msgHello   = "hello"   // member → coordinator: join (Name, Inventory)
	msgWelcome = "welcome" // coordinator → member: accepted (Member, CatalogVersion)
	msgPing    = "ping"    // coordinator → member: heartbeat
	msgPong    = "pong"    // member → coordinator: heartbeat reply
	msgPut     = "put"     // coordinator → member: store one partition (Meta, Entry, Data)
	msgRelease = "release" // coordinator → member: drop Rel/Slot (ownership moved)
	msgVersion = "version" // coordinator → member: adopt CatalogVersion, build its runtime (Members, Metas)
	msgLeave   = "leave"   // member → coordinator: clean shutdown
	msgOK      = "ok"      // generic success reply (Addr answers a version)
	msgErr     = "err"     // generic failure reply (Err)

	// Fragment dispatch (distributed execution).
	msgFragRun    = "frag-run"    // coordinator → member: execute serialized rounds
	msgFragCancel = "frag-cancel" // coordinator → member: abort the frag-run with this ID
	msgFragRows   = "frag-rows"   // member → coordinator: one colbatch chunk of the result fragment
	msgFragDone   = "frag-done"   // member → coordinator: fragment finished (Schema, Report | Err)
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
	// ID is the request a frame belongs to: the coordinator numbers its
	// commands, and every frame the member sends in answer carries the
	// command's ID.
	ID uint64 `json:"id,omitempty"`

	// hello / welcome.
	Name      string    `json:"name,omitempty"`
	Inventory []PartRef `json:"inventory,omitempty"`
	Member    int       `json:"member,omitempty"`

	// version (and welcome): the catalog version to adopt.
	CatalogVersion int64 `json:"catalog_version,omitempty"`

	// put. Data, the frame's payload, is the segment bytes of a put, the
	// serialized rounds of a frag-run, or one colbatch chunk of frag-rows.
	Meta  *partstore.Meta           `json:"meta,omitempty"`
	Entry *partstore.PartitionEntry `json:"entry,omitempty"`
	Data  []byte                    `json:"-"`

	// release.
	Rel  string `json:"rel,omitempty"`
	Slot int    `json:"slot,omitempty"`

	// version: the generation's membership and relation catalog, from which
	// the member builds its engine runtime. Members is the sorted member
	// list (worker i of the plan is Members[i]); Metas describes every
	// relation so members can instantiate empty fragments for relations
	// they hold no slots of. The ok reply's Addr is the runtime's exchange
	// listener.
	Members []string      `json:"members,omitempty"`
	Metas   []FragRelMeta `json:"metas,omitempty"`
	Addr    string        `json:"addr,omitempty"`

	// frag-run: the rounds (in Data) plus everything the member's engine
	// needs to agree with its peers — the full exchange-address vector
	// (Addrs[i] is Members[i]'s listener) and the run options, whose Epoch
	// pins the query's epoch block. CatalogVersion names the generation the
	// plan was made for.
	Addrs   []string        `json:"addrs,omitempty"`
	RunOpts *engine.RunOpts `json:"run_opts,omitempty"`

	// frag-done.
	Schema    []string       `json:"schema,omitempty"`
	Report    *engine.Report `json:"report,omitempty"`
	Retryable bool           `json:"retryable,omitempty"`

	// err (and frag-done failures).
	Err string `json:"err,omitempty"`
}

// RequestID implements wire.Frame.
func (m *msg) RequestID() *uint64 { return &m.ID }

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

// writeMsg / readMsg wrap the wire framing with a deadline: a bounded write
// or handshake read surfaces a hung peer as an error instead of wedging the
// caller. A zero timeout waits indefinitely.
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
