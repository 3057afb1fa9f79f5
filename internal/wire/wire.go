package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
)

// MaxFrame bounds a frame's header plus payload (64 MiB). A peer announcing
// a larger frame is broken or hostile; readers fail the connection.
const MaxFrame = 64 << 20

// ErrFrameTooLarge is the error WriteFrame wraps when it refuses a frame
// over MaxFrame. It has written nothing, so the connection is still in
// step and the writer may answer with a smaller frame instead.
var ErrFrameTooLarge = errors.New("wire: frame too large")

// ProtoVersion is the protocol revision this package speaks; the package
// documentation lists what each version added. A client advertises its
// version in the Proto field of its first request; the server echoes its
// own in every response carrying a non-zero request Proto, so both sides
// can detect a peer that predates a frame before (or instead of) tripping
// over it. A zero Proto means a version-1 peer.
const ProtoVersion = 6

// EncodingColbatch is the Request.Encoding value version-3 clients send to
// ask for colbatch rows. Rows are always colbatch whatever Encoding says;
// the constant names the value such clients still put on the wire.
const EncodingColbatch = "colbatch"

// Request operations.
const (
	// OpPing checks liveness; the response is empty.
	OpPing = "ping"
	// OpLoad registers a relation: Name, Columns, Rows.
	OpLoad = "load"
	// OpLoadCSV loads a relation from CSV text (header row names the
	// columns; non-integer values are dictionary-encoded server-side, so
	// string constants in rules match).
	OpLoadCSV = "loadcsv"
	// OpRelations lists the catalog.
	OpRelations = "relations"
	// OpRun evaluates Rule and returns the rows.
	OpRun = "run"
	// OpCount evaluates Rule and returns only the answer count.
	OpCount = "count"
	// OpExplain runs EXPLAIN ANALYZE on Rule.
	OpExplain = "explain"
	// OpCancel cancels the in-flight request with ID Target.
	OpCancel = "cancel"
	// OpPrepare parses and validates Rule (which may contain "?" parameter
	// placeholders) into a server-side statement owned by this connection;
	// the response carries the statement handle (Stmt) and its parameter
	// count (Params).
	OpPrepare = "prepare"
	// OpExecute runs prepared statement Stmt with the positional Args,
	// returning rows exactly like OpRun.
	OpExecute = "execute"
	// OpCloseStmt frees prepared statement Stmt. Closing an unknown handle
	// is not an error (close is idempotent); statements are also freed when
	// the connection ends.
	OpCloseStmt = "close-stmt"
	// OpCluster reports the elastic-cluster status: membership, the
	// persisted partition map, and the catalog version. A server without
	// cluster machinery answers with a static single-node view.
	OpCluster = "cluster"
)

// Error codes a Response may carry. Clients map these back to typed errors.
const (
	// CodeOverloaded: the admission queue was full or the queue-wait
	// deadline passed — backpressure, retry later.
	CodeOverloaded = "overloaded"
	// CodeDraining: the server is shutting down and admits no new queries.
	CodeDraining = "draining"
	// CodeCanceled: the query was canceled (client cancel or connection
	// loss).
	CodeCanceled = "canceled"
	// CodeDeadline: the per-query deadline expired.
	CodeDeadline = "deadline"
	// CodeOOM: the query exceeded its per-worker memory budget.
	CodeOOM = "oom"
	// CodeSpillBudget: the query exceeded its hard disk cap on spilled
	// bytes.
	CodeSpillBudget = "spill_budget"
	// CodeClosed: the server's cluster is closed.
	CodeClosed = "closed"
	// CodeBadRequest: unparsable rule, unknown relation/strategy/op.
	CodeBadRequest = "bad_request"
	// CodeRetriesExhausted: the query kept failing with retryable transport
	// errors and the server's automatic re-execution budget ran out.
	CodeRetriesExhausted = "retries_exhausted"
	// CodeUnsupportedFrame: the server does not understand the request's
	// op — a newer client talking to an older server (or vice versa). The
	// connection stays healthy; the client should degrade (e.g. fall back
	// from prepare/execute to plain run).
	CodeUnsupportedFrame = "unsupported_frame"
	// CodeTooLarge: a one-frame response would not fit in MaxFrame; the
	// request ran, but its response was not sent. The connection stays
	// healthy. A run/execute answer streams as chunk frames (protocol 6),
	// so no answer gets it.
	CodeTooLarge = "too_large"
	// CodeInternal: anything else.
	CodeInternal = "internal"
)

// Request is a client→server frame.
type Request struct {
	ID uint64 `json:"id"`
	Op string `json:"op"`

	// Proto advertises the client's protocol version, normally on the
	// connection's first request only (0 = version 1, which predates the
	// field).
	Proto int `json:"proto,omitempty"`

	// OpLoad / OpLoadCSV.
	Name    string    `json:"name,omitempty"`
	Columns []string  `json:"columns,omitempty"`
	Rows    [][]int64 `json:"rows,omitempty"`
	CSV     string    `json:"csv,omitempty"`

	// OpRun / OpCount / OpExplain.
	Rule     string `json:"rule,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	// TimeoutMillis caps the query's run time; 0 takes the server default,
	// and the server clamps to its maximum either way.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// BudgetTuples requests a per-worker materialization budget for this
	// query; 0 takes the server's per-query budget, and the server clamps
	// to that budget either way (a client cannot outgrow its carve-out).
	BudgetTuples int64 `json:"budget_tuples,omitempty"`
	// Spill requests a spill policy ("off", "on-pressure", "always"; ""
	// takes the server default).
	Spill string `json:"spill,omitempty"`
	// Encoding is accepted and ignored: result rows always travel as a
	// colbatch stream in Response.RowsEnc, whatever it says. Version-3
	// clients set it to EncodingColbatch.
	Encoding string `json:"enc,omitempty"`

	// OpCancel.
	Target uint64 `json:"target,omitempty"`

	// OpExecute / OpCloseStmt: the statement handle from an OpPrepare
	// response; OpExecute also carries the positional arguments.
	Stmt uint64  `json:"stmt,omitempty"`
	Args []int64 `json:"args,omitempty"`
}

// Stats is the wire form of a query's execution statistics.
type Stats struct {
	Strategy        string  `json:"strategy"`
	Workers         int     `json:"workers"`
	WallNanos       int64   `json:"wall_ns"`
	CPUNanos        int64   `json:"cpu_ns"`
	TuplesShuffled  int64   `json:"tuples_shuffled"`
	MaxConsumerSkew float64 `json:"max_consumer_skew"`
	// QueueWaitNanos is the time the query spent in the admission queue
	// before a slot freed up — the serving-layer latency component.
	QueueWaitNanos int64 `json:"queue_wait_ns"`
	// PeakResidentTuples is the largest per-worker in-memory working set;
	// SpilledBytes and SpillSegments describe spill-to-disk activity.
	PeakResidentTuples int64 `json:"peak_resident_tuples,omitempty"`
	SpilledBytes       int64 `json:"spilled_bytes,omitempty"`
	SpillSegments      int64 `json:"spill_segments,omitempty"`
	// Attempts is how many times the query was executed (> 1 when the
	// server automatically re-ran it after a retryable transport failure);
	// RetryCause is the last error that triggered a re-execution.
	Attempts   int64  `json:"attempts,omitempty"`
	RetryCause string `json:"retry_cause,omitempty"`
	// ResultCached: the answer was replayed from the result cache without
	// executing.
	ResultCached bool `json:"result_cached,omitempty"`
	// RemoteFragments is the number of operator fragments that ran on
	// remote data nodes (0 for a coordinator-local execution);
	// RemoteMembers names them in worker order.
	RemoteFragments int      `json:"remote_fragments,omitempty"`
	RemoteMembers   []string `json:"remote_members,omitempty"`
}

// RelationInfo describes one catalog entry.
type RelationInfo struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Rows    int      `json:"rows"`
}

// ClusterMember describes one member of the elastic cluster.
type ClusterMember struct {
	ID    int    `json:"id"`
	Name  string `json:"name"`
	Addr  string `json:"addr,omitempty"`
	State string `json:"state"` // joining, alive, left, dead
	// Slots is how many partitions the member's name currently owns.
	Slots int `json:"slots"`
}

// PartitionInfo describes one persisted partition's placement.
type PartitionInfo struct {
	Relation string `json:"relation"`
	Slot     int    `json:"slot"`
	Owner    string `json:"owner,omitempty"`
	Tuples   int64  `json:"tuples"`
	Bytes    int64  `json:"bytes"`
}

// ClusterInfo answers OpCluster: the membership, the partition map, and the
// catalog version as of the last committed rebalance. Workers is the engine
// worker count queries currently run with (which tracks the live member
// count on an elastic coordinator).
type ClusterInfo struct {
	CatalogVersion int64           `json:"catalog_version"`
	Workers        int             `json:"workers"`
	Members        []ClusterMember `json:"members,omitempty"`
	Partitions     []PartitionInfo `json:"partitions,omitempty"`
}

// Response is a server→client frame.
type Response struct {
	ID      uint64 `json:"id"`
	ErrCode string `json:"err_code,omitempty"`
	Err     string `json:"err,omitempty"`

	Columns   []string       `json:"columns,omitempty"`
	Count     int64          `json:"count,omitempty"`
	Stats     *Stats         `json:"stats,omitempty"`
	Relations []RelationInfo `json:"relations,omitempty"`
	Explain   string         `json:"explain,omitempty"`
	// Cluster answers OpCluster (protocol 4).
	Cluster *ClusterInfo `json:"cluster,omitempty"`
	// RowsEnc carries one chunk of an OpRun/OpExecute answer's rows as
	// colbatch (internal/colbatch), sent raw as the frame's payload. It is
	// the only form result rows take; an empty answer is one empty batch.
	RowsEnc []byte `json:"-"`
	// More marks a frame of a streamed OpRun/OpExecute answer that another
	// frame with the same ID follows (protocol 6). Every frame but the last
	// sets it and carries only a chunk; the last carries Columns, Stats and
	// any last chunk, or the error that ends the answer instead.
	More bool `json:"more,omitempty"`

	// Proto is the server's protocol version, echoed when the request
	// advertised one. Stmt and Params answer OpPrepare: the statement
	// handle and its "?" parameter count.
	Proto  int    `json:"proto,omitempty"`
	Stmt   uint64 `json:"stmt,omitempty"`
	Params int    `json:"params,omitempty"`
}

// Payloader is a frame type whose one []byte field, tagged json:"-",
// travels raw after the JSON header. Payload is a value method, so
// WriteFrame finds it on a value or a pointer; ReadFrame calls SetPayload.
type Payloader interface {
	Payload() []byte
	SetPayload([]byte)
}

// Payload and SetPayload implement Payloader over RowsEnc.
func (r Response) Payload() []byte      { return r.RowsEnc }
func (r *Response) SetPayload(b []byte) { r.RowsEnc = b }

// payloadFlag marks a length word that a payload-length word follows.
const payloadFlag = 1 << 31

// WriteFrame encodes v as one frame: the length words and the JSON header
// in one Write, then v's payload, if non-empty, in one more. Callers must
// serialize concurrent writes to the same writer themselves.
func WriteFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wire: encode: %w", err)
	}
	var payload []byte
	if p, ok := v.(interface{ Payload() []byte }); ok {
		payload = p.Payload()
	}
	if n := len(body) + len(payload); n > MaxFrame {
		return fmt.Errorf("%w: %d bytes exceeds limit %d", ErrFrameTooLarge, n, MaxFrame)
	}
	word, buf := uint32(len(body)), make([]byte, 4, 8+len(body))
	if len(payload) > 0 {
		word |= payloadFlag
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	}
	binary.BigEndian.PutUint32(buf, word)
	if _, err := w.Write(append(buf, body...)); err != nil || len(payload) == 0 {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// readChunk caps how much a reader allocates ahead of the bytes actually
// arriving, so a hostile length word cannot reserve MaxFrame at once.
const readChunk = 1 << 20

// ReadFrame decodes the next frame into v, its payload through v's
// SetPayload. The buffer grows one readChunk at a time as bytes arrive, so a
// peer announcing a 64 MiB frame and hanging up costs one chunk.
func ReadFrame(r io.Reader, v any) error {
	var words [8]byte
	if _, err := io.ReadFull(r, words[:4]); err != nil {
		return err
	}
	word := binary.BigEndian.Uint32(words[:4])
	n := int(word &^ payloadFlag)
	size := int64(n)
	dst, _ := v.(Payloader)
	if word&payloadFlag != 0 {
		if dst == nil {
			return fmt.Errorf("wire: %T takes no payload", v)
		}
		if _, err := io.ReadFull(r, words[4:]); err != nil {
			return err
		}
		size += int64(binary.BigEndian.Uint32(words[4:]))
	}
	if size > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit %d", size, MaxFrame)
	}
	buf := make([]byte, 0, min(size, readChunk))
	for int64(len(buf)) < size {
		start, take := len(buf), int(min(size-int64(len(buf)), readChunk))
		buf = slices.Grow(buf, take)[:start+take]
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return err
		}
	}
	if err := json.Unmarshal(buf[:n], v); err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	if len(buf) > n {
		dst.SetPayload(buf[n:])
	}
	return nil
}
