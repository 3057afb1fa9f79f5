package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"parajoin/client"
)

const (
	// warmupPasses run before timing starts so caches fill, connections exist
	// and a fresh cluster has settled; their answers are checked like any
	// other.
	warmupPasses = 3
	// setupReps is how many times a run sets the server side up from nothing.
	// setup_s is their median: one sample of a process spawn is too noisy to
	// gate on.
	setupReps = 3
	// opTimeout fails an op instead of hanging the run. The slowest op here
	// takes well under a second.
	opTimeout = 30 * time.Second
)

// servedResult is one workload's end-to-end measurement, tracing off.
type servedResult struct {
	Workload string
	Seed     int64
	passSummary
	OpLabels     []string
	CPUMsPerPass float64
	PeakRSSMiB   float64
	SetupS       float64
	SetupSamples []float64
	WarmupFailed int
}

// failed counts every op that went wrong, warm-up included: a daemon that
// answers wrongly while warming up is as broken as one that does so later.
func (r *servedResult) failed() int { return r.Failed + r.WarmupFailed }

// session is the generator's side of a running workload: at most nproc
// connections, each with the pass's prepared statement.
type session struct {
	w       *workload
	ops     []op
	clients []*client.Client
	stmts   []*client.Stmt // per client; nil when the pass prepares nothing
}

func dialSession(ctx context.Context, w *workload, ops []op, addr string) (*session, error) {
	s := &session{w: w, ops: ops}
	prepared := ""
	for i := range ops {
		if ops[i].prepared {
			prepared = ops[i].rule
		}
	}
	for i := 0; i < w.clients; i++ {
		c, err := client.Dial(addr, client.Options{})
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
		var stmt *client.Stmt
		if prepared != "" {
			if stmt, err = c.Prepare(ctx, prepared); err != nil {
				s.close()
				return nil, fmt.Errorf("prepare %q: %w", prepared, err)
			}
		}
		s.stmts = append(s.stmts, stmt)
	}
	return s, nil
}

func (s *session) close() {
	for _, c := range s.clients {
		c.Close()
	}
}

// runOp sends one op and waits for its decoded rows. The timeout is
// enforced twice: the context makes the client send a cancel frame, and if
// the server does not even answer that, closing the connection unblocks the
// call so the run ends with a failure instead of hanging.
func (s *session) runOp(ctx context.Context, ci, oi int) (*client.Result, time.Duration, error) {
	o := &s.ops[oi]
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	hung := time.AfterFunc(opTimeout+5*time.Second, func() { s.clients[ci].Close() })
	defer hung.Stop()

	opts := client.QueryOptions{Strategy: o.wireStrategy()}
	start := time.Now()
	var (
		res *client.Result
		err error
	)
	if o.prepared {
		res, err = s.stmts[ci].ExecuteWith(ctx, opts, o.args...)
	} else {
		res, err = s.clients[ci].Run(ctx, o.rule, opts)
	}
	return res, time.Since(start), err
}

// pass replays the op list once, closed-loop: each connection takes the next
// unsent op only after its previous answer is decoded. Answers are checked
// after the pass timer stops, so verification never competes with the
// daemons for the host's cores while they are being timed.
func (s *session) pass(ctx context.Context) passSample {
	type outcome struct {
		res *client.Result
		opSample
	}
	outcomes := make([]outcome, len(s.ops))
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	start := time.Now()
	for ci := range s.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for {
				mu.Lock()
				oi := next
				next++
				mu.Unlock()
				if oi >= len(s.ops) {
					return
				}
				res, lat, err := s.runOp(ctx, ci, oi)
				outcomes[oi] = outcome{res, opSample{op: oi, latency: lat, err: err}}
				if err == nil {
					outcomes[oi].queueWait = res.Stats.QueueWait
				}
			}
		}(ci)
	}
	wg.Wait()
	p := passSample{wall: time.Since(start), ops: make([]opSample, len(outcomes))}
	for i, o := range outcomes {
		if o.err == nil {
			o.err = check(s.w, &s.ops[i], o.res)
		}
		p.ops[i] = o.opSample
	}
	return p
}

// setUp brings the workload's server side up from nothing and warms it:
// spawn, CSV load, cluster formation and partition handoff, connect,
// prepare, warm-up passes. Its wall time is one setup_s sample. failed counts
// the warm-up ops that went wrong.
func setUp(ctx context.Context, w *workload, in *inputs, warmups int, bin, runDir string, csvs map[string]string) (sv *serving, sess *session, failed int, err error) {
	if sv, err = startServing(ctx, w, bin, runDir, csvs); err != nil {
		return nil, nil, 0, err
	}
	if sess, err = dialSession(ctx, w, in.ops, sv.addr); err != nil {
		err = fmt.Errorf("%w\n%s", err, sv.logs())
		sv.stop()
		return nil, nil, 0, err
	}
	for i := 0; i < warmups; i++ {
		for _, o := range sess.pass(ctx).ops {
			if o.err != nil {
				failed++
				fmt.Printf("  warm-up failure: %v\n", o.err)
			}
		}
	}
	return sv, sess, failed, nil
}

// runServed measures one workload end to end against real daemons for
// cfg.seconds of timed passes (never fewer than cfg.minPasses).
func runServed(ctx context.Context, w *workload, in *inputs, cfg runConfig, bin string) (res *servedResult, err error) {
	runDir, err := newRunDir()
	if err != nil {
		return nil, err
	}
	defer removeAll(runDir)

	csvs, err := in.writeCSVs(filepath.Join(runDir, "csv"))
	if err != nil {
		return nil, err
	}

	res = &servedResult{Workload: w.name, Seed: cfg.seed}
	for i := range in.ops {
		res.OpLabels = append(res.OpLabels, in.ops[i].label)
	}

	var (
		sv   *serving
		sess *session
	)
	for rep := 0; rep < cfg.setupReps; rep++ {
		var failed int
		start := time.Now()
		sv, sess, failed, err = setUp(ctx, w, in, cfg.warmups, bin, runDir, csvs)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		res.SetupSamples = append(res.SetupSamples, time.Since(start).Seconds())
		res.WarmupFailed += failed
		if rep < cfg.setupReps-1 {
			sess.close()
			sv.stop()
		}
	}
	defer sv.stop()
	defer sess.close()
	defer func() {
		if err != nil || res.failed() > 0 {
			fmt.Print(sv.logs())
		}
	}()
	res.SetupS = median(res.SetupSamples)

	cpu0, _, err := sv.usage()
	if err != nil {
		return nil, err
	}
	var passes []passSample
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(passes) < cfg.minPasses || time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
		p := sess.pass(ctx)
		passes = append(passes, p)
		if timedOut(p) {
			break // the daemon is wedged; more passes would only wait longer
		}
	}
	cpu1, rss, err := sv.usage()
	if err != nil {
		return nil, err
	}
	res.passSummary = summarizePasses(passes, len(in.ops))
	res.CPUMsPerPass = ms(cpu1-cpu0) / float64(len(passes))
	res.PeakRSSMiB = float64(rss) / (1 << 20)
	return res, nil
}

func timedOut(p passSample) bool {
	for _, o := range p.ops {
		if errors.Is(o.err, context.DeadlineExceeded) || errors.Is(o.err, client.ErrConnClosed) {
			return true
		}
	}
	return false
}
