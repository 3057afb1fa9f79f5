package server

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parajoin"
	"parajoin/internal/colbatch"
	"parajoin/internal/metrics"
	"parajoin/internal/rel"
	"parajoin/internal/trace"
	"parajoin/internal/wire"
)

// Config tunes a Server. The zero value gets sensible defaults from New.
type Config struct {
	// MaxConcurrent is the number of queries evaluated simultaneously
	// (default 4). The shared cluster's workers are multiplexed across
	// them, so this bounds CPU oversubscription.
	MaxConcurrent int
	// MaxQueue is the number of queries allowed to wait for a slot before
	// new arrivals are rejected with the overloaded error (default
	// 4×MaxConcurrent).
	MaxQueue int
	// MaxQueueWait is the longest a query may sit in the queue before it is
	// rejected with the overloaded error (default 10s).
	MaxQueueWait time.Duration
	// DefaultTimeout caps a query's run time when the client doesn't ask
	// for one (default 60s); MaxTimeout clamps what clients may ask for
	// (default 10×DefaultTimeout).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// PerQueryMemTuples is each query's per-worker materialization budget.
	// 0 carves the DB-wide limit evenly across MaxConcurrent slots (when
	// the DB has a limit); negative lifts the cap. Clients may request a
	// smaller budget per query, never a larger one.
	PerQueryMemTuples int64
	// Spill is the default spill policy for served queries; SpillDefault
	// inherits the DB's. Clients may override per query with the request's
	// spill field.
	Spill parajoin.SpillPolicy
	// RetryBudget is how many automatic re-executions a query gets after a
	// retryable transport failure (default 2; negative disables retries).
	// HyperCube execution is single-round and stateless between runs, so
	// re-running the whole query is the paper-faithful recovery mechanism —
	// no checkpoints, no partial restarts. Terminal failures (out of
	// memory, spill budget, client cancel, deadline) are never retried.
	RetryBudget int
	// RetryBackoff is the pause before the first re-execution, doubling
	// each retry (default 50ms, capped at 2s). The query's deadline keeps
	// running during backoff.
	RetryBackoff time.Duration
	// Tracer receives a KindQuery span per query (admission outcome,
	// latency, rows). Nil disables serving-layer tracing.
	Tracer *trace.Tracer
	// SlowQueryLog receives one JSON line per query whose end-to-end
	// latency reaches SlowQueryThreshold: rule, outcome, stage timings,
	// retry history, engine stats, and the EXPLAIN ANALYZE of the actual
	// run (captured in-flight — slow queries are never re-executed to
	// explain them). Nil disables the slow log.
	SlowQueryLog io.Writer
	// SlowQueryThreshold is the latency at which a query is considered
	// slow; 0 with a non-nil SlowQueryLog logs every query.
	SlowQueryThreshold time.Duration
	// OnLoad, when non-nil, runs after every successful load op with the
	// relation's name. The elastic daemon hooks persistence here: the fresh
	// relation is hash-partitioned into the partition catalog and the
	// cluster re-synced, so a later restart (or a joining member) can pick
	// the data up from disk.
	OnLoad func(name string)
	// Logf logs serving events (connects, disconnects, drain); nil uses
	// log.Printf. Use a no-op func to silence.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.MaxQueueWait <= 0 {
		c.MaxQueueWait = 10 * time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * c.DefaultTimeout
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 2
	}
	if c.RetryBudget < 0 {
		c.RetryBudget = -1
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Server hosts one shared DB behind the admission controller. The DB can be
// swapped while serving (Rebuild) — the elastic coordinator does so on every
// membership change, re-deriving plans for the new worker count.
type Server struct {
	dbMu sync.RWMutex
	db   *parajoin.DB
	cfg  Config

	gate     *gate
	budget   int64 // per-query MaxLocalTuples (0 = inherit DB)
	querySeq atomic.Int64

	rebuildMu sync.Mutex   // serializes Rebuild calls
	lastRule  atomic.Value // last successfully served rule text (string)
	clusterFn atomic.Value // func() *wire.ClusterInfo answering OpCluster

	baseCtx  context.Context
	stop     context.CancelFunc
	mu       sync.Mutex
	ln       net.Listener
	sessions map[*session]struct{}
	sessWG   sync.WaitGroup
	shutdown bool

	loads atomic.Int64

	slowMu     sync.Mutex // serializes slow-log lines
	slowLogErr atomic.Bool
}

// New creates a server over db. The caller keeps ownership of db (Shutdown
// does not close it), so an embedding process can pre-load relations or
// keep using the DB directly.
func New(db *parajoin.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		db:       db,
		cfg:      cfg,
		gate:     newGate(cfg.MaxConcurrent, cfg.MaxQueue, cfg.MaxQueueWait),
		sessions: make(map[*session]struct{}),
	}
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	s.budget = cfg.PerQueryMemTuples
	if s.budget == 0 {
		if m := db.MemoryLimit(); m > 0 {
			s.budget = max64(1, m/int64(cfg.MaxConcurrent))
		}
	}
	registerServer(s)
	return s
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ListenAndServe binds addr and serves until Shutdown (returning nil) or a
// listener error.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown or a listener error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		ln.Close()
		return ErrDraining
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			down := s.shutdown
			s.mu.Unlock()
			if down {
				return nil
			}
			return err
		}
		sess := s.newSession(conn)
		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.sessions[sess] = struct{}{}
		s.sessWG.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.sessWG.Done()
			sess.serve()
			s.mu.Lock()
			delete(s.sessions, sess)
			s.mu.Unlock()
		}()
	}
}

// Addr returns the bound listen address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains gracefully: stop accepting connections, stop admitting
// queries (new ones get the draining error), let queued and in-flight
// queries finish and their responses flush, then close every connection.
// ctx bounds the wait; on expiry remaining queries are cut off hard.
// Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.shutdown
	s.shutdown = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if !already {
		s.cfg.Logf("draining (%d in flight, %d queued)",
			s.gate.stats().InFlight, s.gate.stats().Queued)
	}

	err := s.gate.drain(ctx)
	// Drained (or out of patience): cancel anything still running and close
	// every connection; read loops exit and sessions wind down.
	s.stop()
	s.mu.Lock()
	for sess := range s.sessions {
		sess.conn.Close()
	}
	s.mu.Unlock()
	s.sessWG.Wait()
	unregisterServer(s)
	if !already {
		s.cfg.Logf("drained")
	}
	return err
}

// Stats snapshots the serving counters.
type Stats struct {
	Gate     GateStats
	Sessions int
	Loads    int64
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	return Stats{Gate: s.gate.stats(), Sessions: n, Loads: s.loads.Load()}
}

// DB returns the database currently being served. The pointer identifies a
// catalog generation: Rebuild replaces it wholesale, so callers comparing
// pointers can tell whether a swap happened between two reads.
func (s *Server) DB() *parajoin.DB {
	s.dbMu.RLock()
	defer s.dbMu.RUnlock()
	return s.db
}

// LastRule returns the rule text of the most recently completed ad-hoc
// query ("" before any). The elastic daemon re-derives HyperCube shares for
// it after a resize, logging how the share grid changed with the worker
// count.
func (s *Server) LastRule() string {
	r, _ := s.lastRule.Load().(string)
	return r
}

// SetClusterInfo installs the provider answering OpCluster — the elastic
// coordinator's live membership and partition map. Without one the server
// reports a static single-node view.
func (s *Server) SetClusterInfo(fn func() *wire.ClusterInfo) {
	s.clusterFn.Store(fn)
}

func (s *Server) clusterInfo() *wire.ClusterInfo {
	if fn, _ := s.clusterFn.Load().(func() *wire.ClusterInfo); fn != nil {
		if info := fn(); info != nil {
			if info.Workers == 0 {
				info.Workers = s.DB().Workers()
			}
			return info
		}
	}
	return &wire.ClusterInfo{
		Workers: s.DB().Workers(),
		Members: []wire.ClusterMember{{Name: "local", State: "alive"}},
	}
}

// Rebuild swaps the served database without dropping the server: it claims
// every concurrency slot (waiting out in-flight queries; ctx bounds the
// wait), calls swap with the current DB, installs the result, resumes
// admission, and closes the old DB. Queries arriving meanwhile queue behind
// the pause under the normal admission bounds. A swap that returns the old
// DB (or an error) changes nothing. In-flight retries notice the swap and
// re-resolve their rules against the new catalog; prepared statements stay
// bound to the old generation and fail typed with CodeClosed.
func (s *Server) Rebuild(ctx context.Context, swap func(old *parajoin.DB) (*parajoin.DB, error)) error {
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	resume, err := s.gate.quiesce(ctx)
	if err != nil {
		return fmt.Errorf("server: rebuild quiesce: %w", err)
	}
	defer resume()
	old := s.DB()
	fresh, err := swap(old)
	if err != nil {
		return err
	}
	if fresh == nil || fresh == old {
		return nil
	}
	s.dbMu.Lock()
	s.db = fresh
	s.dbMu.Unlock()
	old.Close()
	s.cfg.Logf("rebuilt: now serving %d workers", fresh.Workers())
	return nil
}

// ---------------------------------------------------------------- session

// maxSessionStmts caps prepared statements per connection, bounding the
// memory a client can pin server-side.
const maxSessionStmts = 1024

// session is one client connection: a frame reader, a shared frame writer,
// and one goroutine per in-flight request.
type session struct {
	srv  *Server
	conn net.Conn
	ctx  context.Context
	stop context.CancelFunc

	wmu sync.Mutex // serializes response frames

	mu      sync.Mutex
	cancels map[uint64]context.CancelCauseFunc
	stmts   map[uint64]*parajoin.Prepared
	stmtSeq uint64

	// peerProto is the protocol version the client advertised (0 until it
	// does); responses echo the server's version once it has.
	peerProto atomic.Int64

	wg sync.WaitGroup
}

func (s *Server) newSession(conn net.Conn) *session {
	ctx, cancel := context.WithCancel(s.baseCtx)
	return &session{
		srv:     s,
		conn:    conn,
		ctx:     ctx,
		stop:    cancel,
		cancels: make(map[uint64]context.CancelCauseFunc),
		stmts:   make(map[uint64]*parajoin.Prepared),
	}
}

func (ss *session) serve() {
	defer func() {
		ss.stop() // cancels every in-flight query of this session
		ss.wg.Wait()
		ss.conn.Close()
		// Statement cleanup is drain-safe: it runs only after every
		// in-flight request goroutine (each of which may hold a statement)
		// has finished.
		ss.mu.Lock()
		preparedStmts.Add(-int64(len(ss.stmts)))
		ss.stmts = nil
		ss.mu.Unlock()
	}()
	for {
		var req wire.Request
		if err := wire.ReadFrame(ss.conn, &req); err != nil {
			return // disconnect (or shutdown closed the conn)
		}
		if req.Proto != 0 {
			ss.peerProto.Store(int64(req.Proto))
		}
		ss.wg.Add(1)
		go func() {
			defer ss.wg.Done()
			ss.dispatch(&req)
		}()
	}
}

// addStmt registers a prepared statement and returns its handle.
func (ss *session) addStmt(p *parajoin.Prepared) (uint64, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.stmts == nil {
		return 0, fmt.Errorf("session closing")
	}
	if len(ss.stmts) >= maxSessionStmts {
		return 0, fmt.Errorf("too many prepared statements (limit %d); close some", maxSessionStmts)
	}
	ss.stmtSeq++
	id := ss.stmtSeq
	ss.stmts[id] = p
	preparedStmts.Add(1)
	return id, nil
}

// lookupStmt resolves a statement handle (nil when unknown or closed).
func (ss *session) lookupStmt(id uint64) *parajoin.Prepared {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.stmts[id]
}

// stamp echoes the server's protocol version once the peer has advertised
// its own.
func (ss *session) stamp(resp *wire.Response) {
	if resp.Proto == 0 && ss.peerProto.Load() != 0 {
		resp.Proto = wire.ProtoVersion
	}
}

// reply writes resp and returns the write's error. A response over
// wire.MaxFrame is never started, so that one request is answered with a
// CodeTooLarge error instead, the connection carries on, and the error
// returned wraps wire.ErrFrameTooLarge. Any other write error closes the
// connection, and the read loop notices.
func (ss *session) reply(resp *wire.Response) error {
	ss.stamp(resp)
	ss.wmu.Lock()
	defer ss.wmu.Unlock()
	err := wire.WriteFrame(ss.conn, resp)
	if errors.Is(err, wire.ErrFrameTooLarge) {
		if werr := wire.WriteFrame(ss.conn, &wire.Response{ID: resp.ID, Proto: resp.Proto,
			ErrCode: wire.CodeTooLarge, Err: fmt.Sprintf("server: answer not sent: %v", err)}); werr != nil {
			err = werr
		}
	}
	if err != nil && !errors.Is(err, wire.ErrFrameTooLarge) {
		ss.conn.Close()
	}
	return err
}

func (ss *session) fail(id uint64, code string, err error) {
	ss.reply(&wire.Response{ID: id, ErrCode: code, Err: err.Error()})
}

// sentOutcome is the outcome a reply's error leaves the client with: the
// response itself, a CodeTooLarge error in its place, or, once the
// connection has failed, nothing — which the client sees as the
// connection loss CodeCanceled stands for.
func sentOutcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, wire.ErrFrameTooLarge):
		return wire.CodeTooLarge
	}
	return wire.CodeCanceled
}

// chunkValues caps the values (rows × arity) of one answer chunk, the
// colbatch batch one frame of a streamed run/execute answer carries. It
// keeps a chunk frame a few hundred KiB, far below wire.MaxFrame.
const chunkValues = 1 << 16

// chunkedProto is the protocol version that added streamed answers
// (wire.Response.More).
const chunkedProto = 6

// streamAnswer sends a run/execute answer as frames on last's ID and
// returns the outcome the client got. Every frame but the last sets More
// and carries one colbatch chunk, encoded by one Encoder straight from the
// worker fragments, in worker order; last, which holds the columns and
// stats, goes out with the final chunk, so a one-chunk answer is one
// frame. Each frame takes the write lock alone, so the frames of
// concurrent answers on the connection interleave. An answer that needs
// more than one frame is refused to a peer below protocol 6, and ctx
// ending between frames ends the answer with its error instead of the
// last frame: a client never takes part of an answer for all of it.
func (ss *session) streamAnswer(ctx context.Context, last *wire.Response, a *parajoin.Answer) (string, error) {
	chunkRows := max(chunkValues/max(len(last.Columns), 1), 1)
	total := a.Len()
	if proto := ss.peerProto.Load(); total > chunkRows && proto < chunkedProto {
		err := fmt.Errorf("an answer of %d rows takes more than one frame, which needs protocol %d (client speaks %d)",
			total, chunkedProto, max(proto, 1))
		ss.fail(last.ID, wire.CodeUnsupportedFrame, err)
		return wire.CodeUnsupportedFrame, err
	}
	var (
		enc    colbatch.Encoder
		buf    []byte
		gather []rel.Tuple
	)
	fi, ri, pending := 0, 0, total
	for {
		// The next chunk is a slice of one fragment when its rows lie in
		// one, and a gathered list of row views when they straddle two.
		var chunk []rel.Tuple
		gathered := false
		for len(chunk) < chunkRows && fi < len(a.Fragments) {
			f := a.Fragments[fi]
			take := f[ri:min(len(f), ri+chunkRows-len(chunk))]
			if ri += len(take); ri == len(f) {
				fi, ri = fi+1, 0
			}
			switch {
			case len(take) == 0:
			case len(chunk) == 0:
				chunk = take
			case !gathered:
				gather = append(append(gather[:0], chunk...), take...)
				chunk, gathered = gather, true
			default:
				gather = append(gather, take...)
				chunk = gather
			}
		}
		pending -= len(chunk)
		var err error
		if buf, err = enc.AppendTuples(buf[:0], chunk); err != nil {
			err = fmt.Errorf("server: encoding result rows: %w", err)
			ss.fail(last.ID, wire.CodeInternal, err)
			return wire.CodeInternal, err
		}
		if pending == 0 {
			last.RowsEnc = buf
			err := ss.reply(last)
			return sentOutcome(err), err
		}
		if err := ss.reply(&wire.Response{ID: last.ID, RowsEnc: buf, More: true}); err != nil {
			return sentOutcome(err), err
		}
		if err := context.Cause(ctx); err != nil {
			code := errCode(err)
			ss.fail(last.ID, code, err)
			return code, err
		}
	}
}

// errCanceledByClient distinguishes an OpCancel from other context
// cancellations in trace output; both map to CodeCanceled on the wire.
var errCanceledByClient = errors.New("server: canceled by client")

// ErrRetriesExhausted is returned when a query keeps failing with retryable
// transport errors and the automatic re-execution budget (Config.
// RetryBudget) runs out. It wraps the last underlying failure.
var ErrRetriesExhausted = errors.New("server: transport retry budget exhausted")

func (ss *session) dispatch(req *wire.Request) {
	srv := ss.srv
	switch req.Op {
	case wire.OpPing:
		ss.reply(&wire.Response{ID: req.ID})

	case wire.OpLoad:
		if err := srv.DB().Load(req.Name, req.Columns, req.Rows); err != nil {
			ss.fail(req.ID, wire.CodeBadRequest, err)
			return
		}
		srv.loads.Add(1)
		if srv.cfg.OnLoad != nil {
			srv.cfg.OnLoad(req.Name)
		}
		ss.reply(&wire.Response{ID: req.ID})

	case wire.OpLoadCSV:
		if err := srv.DB().LoadCSVReader(req.Name, strings.NewReader(req.CSV)); err != nil {
			ss.fail(req.ID, wire.CodeBadRequest, err)
			return
		}
		srv.loads.Add(1)
		if srv.cfg.OnLoad != nil {
			srv.cfg.OnLoad(req.Name)
		}
		ss.reply(&wire.Response{ID: req.ID})

	case wire.OpRelations:
		db := srv.DB()
		var infos []wire.RelationInfo
		for _, name := range db.Relations() {
			infos = append(infos, wire.RelationInfo{
				Name:    name,
				Columns: db.Columns(name),
				Rows:    db.Cardinality(name),
			})
		}
		ss.reply(&wire.Response{ID: req.ID, Relations: infos})

	case wire.OpCluster:
		ss.reply(&wire.Response{ID: req.ID, Cluster: srv.clusterInfo()})

	case wire.OpCancel:
		ss.mu.Lock()
		cancel := ss.cancels[req.Target]
		ss.mu.Unlock()
		if cancel != nil {
			cancel(errCanceledByClient)
		}
		// Idempotent: canceling a finished (or unknown) request is a no-op.
		ss.reply(&wire.Response{ID: req.ID})

	case wire.OpPrepare:
		p, err := srv.DB().Prepare(req.Rule)
		if err != nil {
			ss.fail(req.ID, wire.CodeBadRequest, err)
			return
		}
		id, err := ss.addStmt(p)
		if err != nil {
			ss.fail(req.ID, wire.CodeBadRequest, err)
			return
		}
		ss.reply(&wire.Response{ID: req.ID, Stmt: id, Params: p.NumParams()})

	case wire.OpCloseStmt:
		ss.mu.Lock()
		if _, ok := ss.stmts[req.Stmt]; ok {
			delete(ss.stmts, req.Stmt)
			preparedStmts.Add(-1)
		}
		ss.mu.Unlock()
		// Idempotent: closing an unknown (or already closed) handle is fine.
		ss.reply(&wire.Response{ID: req.ID})

	case wire.OpRun, wire.OpCount, wire.OpExplain, wire.OpExecute:
		ss.query(req)

	default:
		// A typed degradation signal, not bad_request: the op may be valid
		// in a newer protocol revision than this server speaks.
		ss.fail(req.ID, wire.CodeUnsupportedFrame,
			fmt.Errorf("unsupported op %q (server speaks protocol %d)", req.Op, wire.ProtoVersion))
	}
}

// budgetFor resolves a query's per-worker tuple budget: the client may
// tighten its carve-out, never widen it.
func (s *Server) budgetFor(req *wire.Request) int64 {
	b := s.budget
	if req.BudgetTuples > 0 && (b <= 0 || req.BudgetTuples < b) {
		b = req.BudgetTuples
	}
	return b
}

// spillFor resolves a query's spill policy: the request's explicit choice,
// else the server's default (which may itself inherit the DB's).
func (s *Server) spillFor(req *wire.Request) (parajoin.SpillPolicy, error) {
	p, err := parajoin.ParseSpillPolicy(req.Spill)
	if err != nil {
		return parajoin.SpillDefault, err
	}
	if p == parajoin.SpillDefault {
		p = s.cfg.Spill
	}
	return p, nil
}

// timeoutFor clamps the client's requested deadline to the server's cap.
func (s *Server) timeoutFor(req *wire.Request) time.Duration {
	t := s.cfg.DefaultTimeout
	if req.TimeoutMillis > 0 {
		t = time.Duration(req.TimeoutMillis) * time.Millisecond
	}
	if t > s.cfg.MaxTimeout {
		t = s.cfg.MaxTimeout
	}
	return t
}

// retryBackoffCap bounds the exponential retry backoff.
const retryBackoffCap = 2 * time.Second

// query runs one of the evaluation ops through the admission gate,
// automatically re-executing on retryable transport failures. Each attempt
// re-enters the gate, so a retrying query queues behind other admitted work
// instead of squatting on a slot through its backoff pauses.
func (ss *session) query(req *wire.Request) {
	srv := ss.srv
	seq := srv.querySeq.Add(1)
	start := time.Now()
	attempts := int64(0)
	var (
		waited     time.Duration
		retryCause string
	)
	srv.cfg.Tracer.Emit(trace.Event{
		Kind: trace.KindQuery, Run: seq, Worker: -1, Exchange: -1, Name: "start",
	})

	// Resolve the statement for OpExecute up front so progress and the
	// slow log show the real rule with its arguments, not an empty string.
	var prep *parajoin.Prepared
	ruleText := req.Rule
	if req.Op == wire.OpExecute {
		if prep = ss.lookupStmt(req.Stmt); prep != nil {
			ruleText = fmt.Sprintf("%s /* stmt %d args %v */", prep, req.Stmt, req.Args)
		}
	}

	// Live progress: /debug/queries shows this record until the response is
	// written; the engine updates stage/tuples/spill through the run context.
	prog := metrics.NewQueryProgress(seq, ruleText)
	metrics.TrackQuery(prog)
	defer metrics.UntrackQuery(prog)
	queryMetrics.inflight.Add(1)
	defer queryMetrics.inflight.Add(-1)

	// outcome closes the query's observability span: the KindQuery trace
	// event, the per-outcome latency histogram, and (when the latency
	// crossed the threshold) one slow-log line.
	outcome := func(name string, rows int64, st *wire.Stats, explain string, qerr error) {
		elapsed := time.Since(start)
		observeQueryDone(name, elapsed)
		srv.cfg.Tracer.Emit(trace.Event{
			Kind: trace.KindQuery, Run: seq, Worker: -1, Exchange: -1,
			Name: name, Tuples: rows, Dur: elapsed, Attempts: attempts,
		})
		srv.cfg.Tracer.Flush()
		errStr := ""
		if qerr != nil {
			errStr = qerr.Error()
		}
		srv.logSlowQuery(elapsed, slowLogRecord{
			Time: time.Now(), Query: seq, Op: req.Op, Rule: ruleText,
			Outcome: name, QueueWait: waited.Seconds(), Attempts: attempts,
			RetryCause: retryCause, Rows: rows, Err: errStr,
			Stats: st, Explain: explain,
		})
	}

	// Per-query deadline and cancellation: the context dies when the client
	// cancels (OpCancel), the connection drops, the deadline passes, or the
	// server hard-stops. One deadline spans every attempt, backoffs included.
	ctx, cancel := context.WithCancelCause(ss.ctx)
	defer cancel(nil)
	runCtx, cancelTimeout := context.WithTimeout(ctx, srv.timeoutFor(req))
	defer cancelTimeout()
	runCtx = metrics.WithQuery(runCtx, prog)
	ss.mu.Lock()
	ss.cancels[req.ID] = cancel
	ss.mu.Unlock()
	defer func() {
		ss.mu.Lock()
		delete(ss.cancels, req.ID)
		ss.mu.Unlock()
	}()

	// Parse once, before admission: malformed requests are rejected without
	// consuming a slot, and retries re-execute the already-validated query.
	strategy, err := parajoin.ParseStrategy(req.Strategy)
	if err != nil {
		outcome(wire.CodeBadRequest, 0, nil, "", err)
		ss.fail(req.ID, wire.CodeBadRequest, err)
		return
	}
	// qDB records the catalog generation the query was resolved against; a
	// Rebuild swaps the served DB, and each attempt re-resolves against the
	// new generation so retries keep working across an elastic resize.
	// Prepared statements are pinned to their generation and cannot follow.
	qDB := srv.DB()
	var q *parajoin.Query
	if req.Op == wire.OpExecute {
		if prep == nil {
			err := fmt.Errorf("unknown statement %d (never prepared, or already closed)", req.Stmt)
			outcome(wire.CodeBadRequest, 0, nil, "", err)
			ss.fail(req.ID, wire.CodeBadRequest, err)
			return
		}
		q, err = prep.Bind(req.Args...)
	} else {
		q, err = qDB.Query(req.Rule)
	}
	if err != nil {
		outcome(wire.CodeBadRequest, 0, nil, "", err)
		ss.fail(req.ID, wire.CodeBadRequest, err)
		return
	}
	spillPolicy, err := srv.spillFor(req)
	if err != nil {
		outcome(wire.CodeBadRequest, 0, nil, "", err)
		ss.fail(req.ID, wire.CodeBadRequest, err)
		return
	}
	opts := parajoin.RunOptions{
		Strategy:       strategy,
		MaxLocalTuples: srv.budgetFor(req),
		Spill:          spillPolicy,
		// With the slow log armed every run captures its EXPLAIN ANALYZE
		// in-flight, so a threshold-crossing query can be explained without
		// re-executing it.
		Explain: srv.slowLogEnabled(),
	}

	var (
		resp    *wire.Response
		ans     *parajoin.Answer
		explain string
	)
	for {
		attempts++
		prog.SetAttempt(attempts)
		prog.SetStage("queued")
		// Admission: a free slot, a bounded FIFO wait, or a typed rejection.
		release, w, err := srv.gate.acquire(runCtx)
		if err != nil {
			code := errCode(err)
			outcome(code, 0, nil, "", err)
			ss.fail(req.ID, code, err)
			return
		}
		waited += w
		queryMetrics.queueWait.ObserveDuration(w)
		// An elastic resize may have swapped the DB while this query sat in
		// the queue (or between retry attempts): re-resolve the rule against
		// the new catalog so the attempt runs on live workers. The result
		// stays byte-identical — same data, re-partitioned.
		if db := srv.DB(); db != qDB && req.Op != wire.OpExecute {
			q2, qerr := db.Query(req.Rule)
			if qerr != nil {
				release()
				code := errCode(qerr)
				outcome(code, 0, nil, "", qerr)
				ss.fail(req.ID, code, qerr)
				return
			}
			q, qDB = q2, db
		}
		prog.SetStage("planning")
		execStart := time.Now()
		resp, ans, explain, err = ss.execute(req, q, opts, runCtx)
		queryMetrics.exec.ObserveDuration(time.Since(execStart))
		// Released between attempts (and before the backoff sleep) so a
		// retrying query never starves other admitted work; the response is
		// written before the final release below, so a drained server still
		// implies every admitted query's response reached its connection.
		if err == nil {
			defer release()
			break
		}
		release()
		// ErrClosed from an attempt whose DB generation has since been
		// swapped is the resize race, not a shut-down server: the next
		// attempt re-resolves against the live DB, so treat it as retryable.
		// Prepared statements cannot re-resolve and fail typed instead.
		swapRace := errors.Is(err, parajoin.ErrClosed) &&
			req.Op != wire.OpExecute && srv.DB() != qDB
		if !parajoin.Retryable(err) && !swapRace {
			code := errCode(err)
			outcome(code, 0, nil, "", err)
			ss.fail(req.ID, code, err)
			return
		}
		if srv.cfg.RetryBudget < 0 {
			// Retries disabled: surface the transport failure as-is.
			code := errCode(err)
			outcome(code, 0, nil, "", err)
			ss.fail(req.ID, code, err)
			return
		}
		if attempts > int64(srv.cfg.RetryBudget) {
			err = fmt.Errorf("%w (%d attempts): %w", ErrRetriesExhausted, attempts, err)
			outcome(wire.CodeRetriesExhausted, 0, nil, "", err)
			ss.fail(req.ID, wire.CodeRetriesExhausted, err)
			return
		}
		retryCause = err.Error()
		queryMetrics.retries.Inc()
		srv.cfg.Tracer.Emit(trace.Event{
			Kind: trace.KindRetry, Run: seq, Worker: -1, Exchange: -1,
			Name: retryCause, Attempts: attempts + 1,
		})
		srv.cfg.Logf("query %d: attempt %d failed (%v), retrying", seq, attempts, err)
		backoff := srv.cfg.RetryBackoff << (attempts - 1)
		if backoff > retryBackoffCap {
			backoff = retryBackoffCap
		}
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-runCtx.Done():
			timer.Stop()
			err := context.Cause(runCtx)
			code := errCode(err)
			outcome(code, 0, nil, "", err)
			ss.fail(req.ID, code, err)
			return
		}
	}
	if resp.Stats != nil {
		resp.Stats.QueueWaitNanos = int64(waited)
		resp.Stats.Attempts = attempts
		resp.Stats.RetryCause = retryCause
	}
	if req.Op != wire.OpExecute && req.Rule != "" {
		srv.lastRule.Store(req.Rule)
	}
	// The outcome is what the client got, so it is recorded after the last
	// write: a client holding its answer may find the query's trace event
	// and slow-log line still to come.
	if ans == nil {
		err := ss.reply(resp)
		outcome(sentOutcome(err), resp.Count, resp.Stats, explain, err)
		return
	}
	prog.SetStage("streaming")
	sent, err := ss.streamAnswer(ctx, resp, ans)
	outcome(sent, int64(ans.Len()), resp.Stats, explain, err)
}

// execute runs a single attempt of an evaluation op. For run and execute
// the rows stay in the returned answer, for streamAnswer to send, and resp
// is the answer's last frame without them. The returned explain string is
// the run's in-flight EXPLAIN ANALYZE capture (empty unless
// RunOptions.Explain was set) — it feeds the slow-query log, and is the
// wire response of OpExplain, which runs under the same resolved options.
func (ss *session) execute(req *wire.Request, q *parajoin.Query, opts parajoin.RunOptions, runCtx context.Context) (*wire.Response, *parajoin.Answer, string, error) {
	resp := &wire.Response{ID: req.ID}
	switch req.Op {
	case wire.OpRun, wire.OpExecute:
		a, err := q.AnswerWithOptions(runCtx, opts)
		if err != nil {
			return nil, nil, "", err
		}
		resp.Columns = a.Columns
		resp.Stats = wireStats(&a.Stats)
		return resp, a, a.Stats.Explain, nil

	case wire.OpCount:
		n, st, err := q.CountWithOptions(runCtx, opts)
		if err != nil {
			return nil, nil, "", err
		}
		resp.Count = n
		resp.Stats = wireStats(st)
		return resp, nil, st.Explain, nil

	default: // wire.OpExplain (dispatch admits no other op here)
		opts.Explain = true
		a, err := q.AnswerWithOptions(runCtx, opts)
		if err != nil {
			return nil, nil, "", err
		}
		resp.Explain = a.Stats.Explain
		return resp, nil, resp.Explain, nil
	}
}

func wireStats(st *parajoin.Stats) *wire.Stats {
	if st == nil {
		return nil
	}
	return &wire.Stats{
		Strategy:           string(st.Strategy),
		Workers:            st.Workers,
		WallNanos:          int64(st.Wall),
		CPUNanos:           int64(st.CPU),
		TuplesShuffled:     st.TuplesShuffled,
		MaxConsumerSkew:    st.MaxConsumerSkew,
		PeakResidentTuples: st.PeakResidentTuples,
		SpilledBytes:       st.SpilledBytes,
		SpillSegments:      st.SpillSegments,
		ResultCached:       st.ResultCached,
		RemoteFragments:    st.RemoteFragments,
		RemoteMembers:      st.RemoteMembers,
	}
}

// errCode maps an error to its wire code.
func errCode(err error) string {
	switch {
	case errors.Is(err, ErrRetriesExhausted):
		return wire.CodeRetriesExhausted
	case errors.Is(err, ErrOverloaded):
		return wire.CodeOverloaded
	case errors.Is(err, ErrDraining):
		return wire.CodeDraining
	case errors.Is(err, parajoin.ErrOutOfMemory):
		return wire.CodeOOM
	case errors.Is(err, parajoin.ErrSpillBudget):
		return wire.CodeSpillBudget
	case errors.Is(err, parajoin.ErrClosed):
		return wire.CodeClosed
	case errors.Is(err, errCanceledByClient), errors.Is(err, context.Canceled):
		return wire.CodeCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return wire.CodeDeadline
	}
	return wire.CodeInternal
}

// ---------------------------------------------------------------- expvar

// Live servers, summed into the "parajoin_server" expvar: admission-gate
// depth, sessions and loads, which the metrics registry does not carry.
var (
	registryMu sync.Mutex
	registry   = make(map[*Server]struct{})
	publish    sync.Once
)

func registerServer(s *Server) {
	registryMu.Lock()
	registry[s] = struct{}{}
	registryMu.Unlock()
	publish.Do(func() { expvar.Publish("parajoin_server", expvar.Func(liveStats)) })
}

// liveStats sums Stats over every live server.
func liveStats() any {
	registryMu.Lock()
	defer registryMu.Unlock()
	var total Stats
	for s := range registry {
		st := s.Stats()
		total.Sessions += st.Sessions
		total.Loads += st.Loads
		total.Gate.InFlight += st.Gate.InFlight
		total.Gate.Queued += st.Gate.Queued
		total.Gate.Admitted += st.Gate.Admitted
		total.Gate.Completed += st.Gate.Completed
		total.Gate.RejectedQueueFull += st.Gate.RejectedQueueFull
		total.Gate.RejectedQueueWait += st.Gate.RejectedQueueWait
		total.Gate.CanceledInQueue += st.Gate.CanceledInQueue
		total.Gate.Draining = total.Gate.Draining || st.Gate.Draining
	}
	return total
}

func unregisterServer(s *Server) {
	registryMu.Lock()
	delete(registry, s)
	registryMu.Unlock()
}
