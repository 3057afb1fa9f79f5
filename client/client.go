// Package client is the Go client for parajoind, parajoin's query service.
// A Client holds one TCP connection and multiplexes any number of
// concurrent requests over it: every request carries an ID, and the
// connection's wire.Link hands each response back to its caller, so
// goroutines can share one Client freely.
//
// Cancellation is first-class: when a caller's context expires mid-query,
// the client sends a cancel frame referencing the in-flight request and the
// server frees its admission slot promptly instead of computing an answer
// nobody will read.
//
// Server-side failures come back as typed errors: errors.Is(err,
// ErrOverloaded) means admission backpressure (retry later with backoff),
// ErrDraining means the server is shutting down, and context.Canceled /
// context.DeadlineExceeded mean exactly what they do locally.
package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"parajoin/internal/colbatch"
	"parajoin/internal/wire"
)

// Typed serving errors, matched with errors.Is. They mirror the wire error
// codes; see also context.Canceled and context.DeadlineExceeded, which the
// client maps server-side cancellation and deadline expiry back to.
var (
	// ErrOverloaded: the server's admission queue was full or the queue
	// wait timed out. The server is healthy but saturated — back off and
	// retry.
	ErrOverloaded = errors.New("parajoind: overloaded")
	// ErrDraining: the server is shutting down and admits no new queries.
	ErrDraining = errors.New("parajoind: draining")
	// ErrOutOfMemory: the query exceeded its per-worker memory budget.
	ErrOutOfMemory = errors.New("parajoind: query exceeded memory budget")
	// ErrSpillBudget: the query spilled more bytes to disk than its hard cap
	// allows.
	ErrSpillBudget = errors.New("parajoind: query exceeded spill disk budget")
	// ErrServerClosed: the server's engine cluster is closed.
	ErrServerClosed = errors.New("parajoind: server closed")
	// ErrRetriesExhausted: the query kept failing with retryable transport
	// errors and the server's automatic re-execution budget ran out.
	ErrRetriesExhausted = errors.New("parajoind: transport retry budget exhausted")
	// ErrConnClosed: this client's connection is gone (Close was called or
	// the server went away); in-flight and future calls fail with it.
	ErrConnClosed = errors.New("parajoind: connection closed")
	// ErrUnsupported: the server does not understand the request's frame —
	// it speaks an older protocol. Degrade (e.g. fall back from
	// Prepare/Execute to plain Run); the connection itself stays healthy.
	ErrUnsupported = errors.New("parajoind: unsupported frame")
	// ErrTooLarge: the server handled the request, but a one-frame
	// response exceeds the largest frame the protocol carries (MaxFrame),
	// so it did not send it. The connection stays healthy. Run and Execute
	// answers stream as chunk frames (protocol 6), so no answer gets it,
	// whatever its size.
	ErrTooLarge = errors.New("parajoind: answer too large for one frame")
)

// ServerError is a failure reported by the server. It unwraps to the typed
// sentinel matching its code, so errors.Is(err, ErrOverloaded) etc. work.
type ServerError struct {
	Code string // a wire error code, e.g. "overloaded"
	Msg  string
}

func (e *ServerError) Error() string { return fmt.Sprintf("parajoind: %s: %s", e.Code, e.Msg) }

func (e *ServerError) Unwrap() error {
	switch e.Code {
	case wire.CodeOverloaded:
		return ErrOverloaded
	case wire.CodeDraining:
		return ErrDraining
	case wire.CodeOOM:
		return ErrOutOfMemory
	case wire.CodeSpillBudget:
		return ErrSpillBudget
	case wire.CodeClosed:
		return ErrServerClosed
	case wire.CodeRetriesExhausted:
		return ErrRetriesExhausted
	case wire.CodeCanceled:
		return context.Canceled
	case wire.CodeDeadline:
		return context.DeadlineExceeded
	case wire.CodeUnsupportedFrame:
		return ErrUnsupported
	case wire.CodeTooLarge:
		return ErrTooLarge
	}
	return nil
}

// Options tune Dial.
type Options struct {
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// Retries is the number of extra connection attempts after the first
	// fails (default 3), spaced by backoff doubling from RetryBackoff
	// (default 100ms). Useful when the daemon is still starting.
	Retries      int
	RetryBackoff time.Duration
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 100 * time.Millisecond
	}
	return o
}

// QueryOptions tune one Run/Count/Explain call.
type QueryOptions struct {
	// Strategy picks the evaluation strategy ("" lets the server's planner
	// choose).
	Strategy string
	// Timeout caps the query's server-side run time; 0 takes the server
	// default. The server clamps it to its configured maximum either way.
	Timeout time.Duration
	// BudgetTuples asks for a per-worker materialization budget; 0 takes the
	// server's per-query budget. A client can tighten its carve-out but
	// never widen it — the server clamps to its own budget.
	BudgetTuples int64
	// Spill picks the spill-to-disk policy ("off", "on-pressure", "always";
	// "" takes the server default).
	Spill string
}

// Stats reports one query's execution statistics.
type Stats struct {
	Strategy        string
	Workers         int
	Wall            time.Duration
	CPU             time.Duration
	TuplesShuffled  int64
	MaxConsumerSkew float64
	// QueueWait is the time the query spent in the server's admission queue.
	QueueWait time.Duration
	// PeakResidentTuples is the largest per-worker in-memory working set;
	// SpilledBytes and SpillSegments describe spill-to-disk activity.
	PeakResidentTuples int64
	SpilledBytes       int64
	SpillSegments      int64
	// Attempts is how many times the server executed the query (> 1 when it
	// was automatically re-run after a retryable transport failure);
	// RetryCause is the last error that triggered a re-execution.
	Attempts   int64
	RetryCause string
	// PlanCached is always false: servers plan every query afresh and no
	// longer report plan reuse. The field stays until the benchmark
	// harness, which still reads it, stops doing so.
	PlanCached bool
	// ResultCached: the server replayed the answer from its result cache
	// without executing at all.
	ResultCached bool
	// RemoteFragments is the number of operator fragments the server pushed
	// to remote data nodes (0 when its coordinator executed the query
	// locally); RemoteMembers names those nodes in worker order.
	RemoteFragments int
	RemoteMembers   []string
}

// Result is a query's rows plus its stats.
type Result struct {
	Columns []string
	Rows    [][]int64
	Stats   Stats
}

// Relation describes one catalog entry.
type Relation struct {
	Name    string
	Columns []string
	Rows    int
}

// Client is a connection to a parajoind server, safe for concurrent use.
// Its requests share one wire.Link, which finishes each exactly once: with
// the server's response, or with an error wrapping ErrConnClosed when the
// connection ends.
type Client struct {
	link *wire.Link[wire.Response]
	// protoSent flips once the first request has advertised our version.
	protoSent atomic.Bool
}

// Dial connects to a parajoind server, retrying with exponential backoff if
// the server isn't accepting yet.
func Dial(addr string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	var (
		conn net.Conn
		err  error
	)
	backoff := opts.RetryBackoff
	for attempt := 0; ; attempt++ {
		conn, err = net.DialTimeout("tcp", addr, opts.DialTimeout)
		if err == nil {
			break
		}
		if attempt >= opts.Retries {
			return nil, fmt.Errorf("parajoind: dial %s: %w", addr, err)
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	return &Client{link: wire.NewLink(conn, wire.LinkConfig[wire.Response]{
		Last: func(resp *wire.Response) bool { return !resp.More },
		Failed: func(cause error) error {
			if errors.Is(cause, wire.ErrFrameTooLarge) {
				return cause // nothing was written; the connection stays up
			}
			return fmt.Errorf("%w: %v", ErrConnClosed, cause)
		},
	})}, nil
}

// Close tears down the connection. In-flight calls fail with ErrConnClosed.
func (c *Client) Close() error { return c.link.Close() }

// call sends req and waits for its last response frame. Each frame before
// it, a chunk of a streamed answer (More set), goes to chunk on the link's
// reader as it arrives, so everything chunk did happens before call
// returns. If ctx expires first call sends a cancel frame and still waits
// for the last frame, so the server's slot accounting and the connection
// framing stay consistent.
func (c *Client) call(ctx context.Context, req *wire.Request, chunk func(*wire.Response)) (*wire.Response, error) {
	if c.protoSent.CompareAndSwap(false, true) {
		req.Proto = wire.ProtoVersion
	}
	type reply struct {
		resp *wire.Response
		err  error
	}
	ch := make(chan reply, 1)
	id := c.link.Send(req, func(resp *wire.Response, err error) {
		if resp != nil && resp.More {
			if chunk != nil {
				chunk(resp)
			}
			return
		}
		ch <- reply{resp, err}
	})
	var r reply
	select {
	case r = <-ch:
	case <-ctx.Done():
		// Ask the server to cancel, then wait for the original request's
		// last frame — the server ends every request exactly once.
		c.link.Send(&wire.Request{Op: wire.OpCancel, Target: id}, func(*wire.Response, error) {})
		if r = <-ch; r.err != nil {
			return nil, context.Cause(ctx)
		}
	}
	switch {
	case r.err != nil:
		return nil, r.err
	case r.resp.ErrCode != "":
		return nil, &ServerError{Code: r.resp.ErrCode, Msg: r.resp.Err}
	}
	return r.resp, nil
}

// Ping checks the server is alive.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.call(ctx, &wire.Request{Op: wire.OpPing}, nil)
	return err
}

// Load registers a relation on the server.
func (c *Client) Load(ctx context.Context, name string, columns []string, rows [][]int64) error {
	_, err := c.call(ctx, &wire.Request{Op: wire.OpLoad, Name: name, Columns: columns, Rows: rows}, nil)
	return err
}

// LoadCSV loads a relation from CSV text (header row names the columns).
// Non-integer values are dictionary-encoded server-side, so string
// constants written in rules match the loaded data.
func (c *Client) LoadCSV(ctx context.Context, name, csv string) error {
	_, err := c.call(ctx, &wire.Request{Op: wire.OpLoadCSV, Name: name, CSV: csv}, nil)
	return err
}

// Relations lists the server's catalog.
func (c *Client) Relations(ctx context.Context) ([]Relation, error) {
	resp, err := c.call(ctx, &wire.Request{Op: wire.OpRelations}, nil)
	if err != nil {
		return nil, err
	}
	out := make([]Relation, len(resp.Relations))
	for i, r := range resp.Relations {
		out[i] = Relation{Name: r.Name, Columns: r.Columns, Rows: r.Rows}
	}
	return out, nil
}

// ClusterInfo is the server's elastic-cluster status: membership, the
// persisted partition map, and the catalog version. A single-node server
// (no cluster machinery) reports one synthetic alive member and no
// partitions.
type ClusterInfo = wire.ClusterInfo

// Cluster reports the server's cluster status. errors.Is(err,
// ErrUnsupported) means the server predates the cluster frame (protocol
// version < 4).
func (c *Client) Cluster(ctx context.Context) (*ClusterInfo, error) {
	resp, err := c.call(ctx, &wire.Request{Op: wire.OpCluster}, nil)
	if err != nil {
		return nil, err
	}
	if resp.Cluster == nil {
		return nil, fmt.Errorf("parajoind: server answered the cluster frame without a cluster payload")
	}
	return resp.Cluster, nil
}

func queryReq(op, rule string, opts QueryOptions) *wire.Request {
	return &wire.Request{
		Op:            op,
		Rule:          rule,
		Strategy:      opts.Strategy,
		TimeoutMillis: int64(opts.Timeout / time.Millisecond),
		BudgetTuples:  opts.BudgetTuples,
		Spill:         opts.Spill,
	}
}

// query sends a run or execute request and gathers its streamed answer.
func (c *Client) query(ctx context.Context, req *wire.Request) (*Result, error) {
	var g chunks
	resp, err := c.call(ctx, req, func(f *wire.Response) { g.decode(f.RowsEnc) })
	if err != nil {
		return nil, err
	}
	if g.decode(resp.RowsEnc); g.err != nil {
		return nil, g.err
	}
	return &Result{Columns: resp.Columns, Rows: g.rows(), Stats: statsOf(resp.Stats)}, nil
}

// chunks gathers a streamed answer. Each chunk frame is decoded into its
// own arena as it arrives, and the answer's rows are views of those
// arenas: one row slice, sized once the last frame is in, is the only
// copy.
type chunks struct {
	batches []*colbatch.Batch
	n       int
	err     error // the first decode error; later chunks are ignored
}

// decode decodes one frame's batches.
func (g *chunks) decode(data []byte) {
	for g.err == nil && len(data) > 0 {
		b, used, err := colbatch.DecodeNext(data)
		if err != nil {
			g.err = fmt.Errorf("parajoind: decoding columnar rows: %w", err)
			return
		}
		g.batches, g.n, data = append(g.batches, b), g.n+b.Rows(), data[used:]
	}
}

// rows returns every decoded row, in arrival order.
func (g *chunks) rows() [][]int64 {
	rows := make([][]int64, 0, g.n)
	for _, b := range g.batches {
		rows = b.AppendRows(rows)
	}
	return rows
}

func statsOf(w *wire.Stats) Stats {
	if w == nil {
		return Stats{}
	}
	return Stats{
		Strategy:           w.Strategy,
		Workers:            w.Workers,
		Wall:               time.Duration(w.WallNanos),
		CPU:                time.Duration(w.CPUNanos),
		TuplesShuffled:     w.TuplesShuffled,
		MaxConsumerSkew:    w.MaxConsumerSkew,
		QueueWait:          time.Duration(w.QueueWaitNanos),
		PeakResidentTuples: w.PeakResidentTuples,
		SpilledBytes:       w.SpilledBytes,
		SpillSegments:      w.SpillSegments,
		Attempts:           w.Attempts,
		RetryCause:         w.RetryCause,
		ResultCached:       w.ResultCached,
		RemoteFragments:    w.RemoteFragments,
		RemoteMembers:      w.RemoteMembers,
	}
}

// Run evaluates a datalog rule on the server and returns the result rows.
func (c *Client) Run(ctx context.Context, rule string, opts QueryOptions) (*Result, error) {
	return c.query(ctx, queryReq(wire.OpRun, rule, opts))
}

// Count evaluates a rule and returns only the answer count.
func (c *Client) Count(ctx context.Context, rule string, opts QueryOptions) (int64, Stats, error) {
	resp, err := c.call(ctx, queryReq(wire.OpCount, rule, opts), nil)
	if err != nil {
		return 0, Stats{}, err
	}
	return resp.Count, statsOf(resp.Stats), nil
}

// Explain runs EXPLAIN ANALYZE on a rule and returns the rendered plan.
func (c *Client) Explain(ctx context.Context, rule string, opts QueryOptions) (string, error) {
	resp, err := c.call(ctx, queryReq(wire.OpExplain, rule, opts), nil)
	if err != nil {
		return "", err
	}
	return resp.Explain, nil
}

// Stmt is a server-side prepared statement, owned by the connection that
// prepared it. The server parses and validates the rule once at prepare
// time; executions with identical arguments over unchanged data can replay
// from its result cache.
type Stmt struct {
	c      *Client
	id     uint64
	params int
	rule   string
}

// Prepare parses and validates a rule (which may contain "?" parameter
// placeholders) into a server-side statement. errors.Is(err, ErrUnsupported)
// means the server predates prepared statements — fall back to Run with the
// constants inlined.
func (c *Client) Prepare(ctx context.Context, rule string) (*Stmt, error) {
	resp, err := c.call(ctx, &wire.Request{Op: wire.OpPrepare, Rule: rule}, nil)
	if err != nil {
		return nil, err
	}
	return &Stmt{c: c, id: resp.Stmt, params: resp.Params, rule: rule}, nil
}

// NumParams is the number of "?" placeholders the statement binds.
func (s *Stmt) NumParams() int { return s.params }

// String returns the rule text the statement was prepared from.
func (s *Stmt) String() string { return s.rule }

// Execute runs the statement with args bound to its "?" placeholders in
// order, under default query options.
func (s *Stmt) Execute(ctx context.Context, args ...int64) (*Result, error) {
	return s.ExecuteWith(ctx, QueryOptions{}, args...)
}

// ExecuteWith is Execute with per-call query options.
func (s *Stmt) ExecuteWith(ctx context.Context, opts QueryOptions, args ...int64) (*Result, error) {
	req := queryReq(wire.OpExecute, "", opts)
	req.Stmt = s.id
	req.Args = args
	return s.c.query(ctx, req)
}

// Close frees the statement on the server. Closing twice is harmless, and
// statements are freed automatically when the connection ends.
func (s *Stmt) Close(ctx context.Context) error {
	_, err := s.c.call(ctx, &wire.Request{Op: wire.OpCloseStmt, Stmt: s.id}, nil)
	return err
}
