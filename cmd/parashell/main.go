// Command parashell is an interactive datalog shell over the parajoin
// engine: load CSV relations (or generate synthetic graphs), type rules,
// and compare execution strategies.
//
//	$ parashell -workers 8
//	> \gen E 20000 1200
//	> \strategy hc_tj
//	> Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)
//	7749 rows  wall=112ms shuffled=120000 [hc_tj, shares [x:2 × y:2 × z:2]]
//
// Commands:
//
//	\load <name> <file.csv>   load a relation from CSV
//	\gen <name> <edges> <nodes>  generate a synthetic power-law graph
//	\rels                     list loaded relations
//	\cluster                  show membership, partition map, catalog version
//	\strategy [name]          show or set the strategy (auto, hc_tj, ...)
//	\count <rule>             run a rule, printing only the answer count
//	\explain <rule>           run a rule and print its plan with actuals
//	\prepare <name> <rule>    prepare a rule with "?" parameter placeholders
//	\exec <name> [args...]    execute a prepared statement with arguments
//	\stmts                    list prepared statements
//	\limit <n>                rows printed per query (default 10)
//	\budget [n]               per-worker tuple budget (0 = engine default)
//	\spill [on|off|always]    spill-to-disk policy under memory pressure
//	\connect <host:port>      switch to a parajoind server (\local to return)
//	\quit                     exit
//
// In remote mode (\connect, or the -connect flag) every command runs
// against a parajoind server instead of the in-process engine: \load ships
// the CSV text, \gen generates locally and uploads, and queries share the
// server's cluster with every other client — subject to its admission
// control, so an `overloaded` error means back off and retry.
//
// With -debug-addr the shell serves pprof profiles, expvar counters, and
// recent trace events over HTTP while queries run.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"parajoin"
	"parajoin/client"
	"parajoin/internal/debug"
)

type shell struct {
	db       *parajoin.DB
	remote   *client.Client // non-nil in \connect mode
	addr     string         // remote address when connected
	strategy parajoin.Strategy
	limit    int
	budget   int64                // per-worker tuple budget; 0 = engine default
	spill    parajoin.SpillPolicy // SpillDefault = engine/server default
	prepared map[string]*prepStmt // \prepare'd statements by name
	out      io.Writer
}

// prepStmt is one \prepare'd statement: local statements bind in-process,
// remote ones hold a server-side handle. Statements are mode-bound — a
// server handle dies with its connection — so mode switches clear them.
type prepStmt struct {
	rule   string
	local  *parajoin.Prepared
	remote *client.Stmt
}

func (p *prepStmt) numParams() int {
	if p.remote != nil {
		return p.remote.NumParams()
	}
	return p.local.NumParams()
}

func main() {
	log.SetFlags(0)
	workers := flag.Int("workers", 8, "cluster size")
	parallelism := flag.Int("parallelism", 0, "intra-worker join parallelism: 0 auto, 1 serial, K>1 sub-joins per worker")
	debugAddr := flag.String("debug-addr", "", "serve pprof/expvar/trace diagnostics on this address (e.g. :6060)")
	connect := flag.String("connect", "", "start connected to a parajoind server (host:port)")
	resultTuples := flag.Int64("result-cache-tuples", 0, "local-mode result cache budget in tuples (0 disables; cached replays skip execution)")
	flag.Parse()

	var opts []parajoin.Option
	if *parallelism != 0 {
		opts = append(opts, parajoin.WithParallelism(*parallelism))
	}
	if *resultTuples > 0 {
		opts = append(opts, parajoin.WithResultCache(*resultTuples))
	}
	if *debugAddr != "" {
		ring := parajoin.NewTraceRing(4096)
		opts = append(opts, parajoin.WithTracer(parajoin.NewTracer(ring)))
		addr, err := debug.Serve(*debugAddr, ring)
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		fmt.Printf("debug server on http://%s/debug/\n", addr)
	}

	sh := &shell{
		db:       parajoin.Open(*workers, opts...),
		strategy: parajoin.Auto,
		limit:    10,
		out:      os.Stdout,
	}
	defer sh.db.Close()

	if *connect != "" {
		if err := sh.dial(*connect); err != nil {
			log.Fatalf("connect %s: %v", *connect, err)
		}
	}
	if sh.remote != nil {
		fmt.Fprintf(sh.out, "parajoin shell — connected to parajoind at %s. \\local for the in-process engine.\n", sh.addr)
	} else {
		fmt.Fprintf(sh.out, "parajoin shell — %d workers. \\quit to exit, \\gen E 20000 1200 to get data.\n", *workers)
	}
	sh.repl(os.Stdin)
	if sh.remote != nil {
		sh.remote.Close()
	}
}

func (sh *shell) dial(addr string) error {
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		return err
	}
	if err := c.Ping(context.Background()); err != nil {
		c.Close()
		return err
	}
	if sh.remote != nil {
		sh.remote.Close()
	}
	sh.remote, sh.addr = c, addr
	sh.clearPrepared()
	return nil
}

// clearPrepared drops every prepared statement on a mode switch: remote
// handles are owned by the old connection and local statements would
// silently diverge from what the prompt is now talking to.
func (sh *shell) clearPrepared() {
	if len(sh.prepared) > 0 {
		fmt.Fprintf(sh.out, "dropped %d prepared statement(s) (mode change)\n", len(sh.prepared))
	}
	sh.prepared = nil
}

func (sh *shell) repl(in io.Reader) {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(sh.out, "> ")
		if !scanner.Scan() {
			fmt.Fprintln(sh.out)
			return
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == `\quit` || line == `\q` {
			return
		}
		if err := sh.eval(line); err != nil {
			fmt.Fprintf(sh.out, "error: %v\n", err)
		}
	}
}

func (sh *shell) eval(line string) error {
	if strings.HasPrefix(line, `\`) {
		return sh.command(line)
	}
	return sh.runRule(line, false)
}

func (sh *shell) command(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case `\connect`:
		if len(fields) == 1 {
			if sh.remote != nil {
				fmt.Fprintf(sh.out, "connected to %s\n", sh.addr)
			} else {
				fmt.Fprintln(sh.out, "local mode (in-process engine)")
			}
			return nil
		}
		if err := sh.dial(fields[1]); err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "connected to parajoind at %s\n", sh.addr)
		return nil

	case `\local`:
		if sh.remote != nil {
			sh.remote.Close()
			sh.remote, sh.addr = nil, ""
			sh.clearPrepared()
		}
		fmt.Fprintln(sh.out, "local mode (in-process engine)")
		return nil

	case `\load`:
		if len(fields) != 3 {
			return fmt.Errorf(`usage: \load <name> <file.csv>`)
		}
		if sh.remote != nil {
			// Ship the CSV text; the server dictionary-encodes it so string
			// constants in rules still match.
			text, err := os.ReadFile(fields[2])
			if err != nil {
				return err
			}
			if err := sh.remote.LoadCSV(context.Background(), fields[1], string(text)); err != nil {
				return err
			}
		} else if err := sh.db.LoadCSV(fields[1], fields[2]); err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "loaded %s: %d rows\n", fields[1], sh.cardinality(fields[1]))
		return nil

	case `\gen`:
		if len(fields) != 4 {
			return fmt.Errorf(`usage: \gen <name> <edges> <nodes>`)
		}
		edges, err1 := strconv.Atoi(fields[2])
		nodes, err2 := strconv.Atoi(fields[3])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("edges and nodes must be integers")
		}
		graph := parajoin.SyntheticGraph(edges, nodes, 42)
		if sh.remote != nil {
			// Generate locally, upload to the server.
			rows := make([][]int64, len(graph))
			for i, e := range graph {
				rows[i] = []int64{e[0], e[1]}
			}
			if err := sh.remote.Load(context.Background(), fields[1], []string{"src", "dst"}, rows); err != nil {
				return err
			}
		} else if err := sh.db.LoadEdges(fields[1], graph); err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "generated %s: %d edges over %d nodes\n",
			fields[1], sh.cardinality(fields[1]), nodes)
		return nil

	case `\rels`:
		if sh.remote != nil {
			rels, err := sh.remote.Relations(context.Background())
			if err != nil {
				return err
			}
			for _, r := range rels {
				fmt.Fprintf(sh.out, "%-16s %d rows\n", r.Name, r.Rows)
			}
			return nil
		}
		for _, name := range sh.db.Relations() {
			fmt.Fprintf(sh.out, "%-16s %d rows\n", name, sh.db.Cardinality(name))
		}
		return nil

	case `\cluster`:
		return sh.clusterStatus()

	case `\strategy`:
		if len(fields) == 1 {
			fmt.Fprintf(sh.out, "strategy: %s\n", sh.strategy)
			return nil
		}
		s := parajoin.Strategy(strings.ToLower(fields[1]))
		switch s {
		case parajoin.Auto, parajoin.HyperCubeTributary, parajoin.HyperCubeHash,
			parajoin.RegularHash, parajoin.RegularTributary, parajoin.RegularHashSkew,
			parajoin.BroadcastHash, parajoin.BroadcastTributary, parajoin.Semijoin:
			sh.strategy = s
			fmt.Fprintf(sh.out, "strategy: %s\n", s)
			return nil
		}
		return fmt.Errorf("unknown strategy %q", fields[1])

	case `\limit`:
		if len(fields) != 2 {
			return fmt.Errorf(`usage: \limit <n>`)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			return fmt.Errorf("limit must be a non-negative integer")
		}
		sh.limit = n
		return nil

	case `\budget`:
		if len(fields) == 1 {
			if sh.budget == 0 {
				fmt.Fprintln(sh.out, "budget: engine default")
			} else {
				fmt.Fprintf(sh.out, "budget: %d tuples per worker\n", sh.budget)
			}
			return nil
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf(`usage: \budget <n>  (0 resets to the engine default)`)
		}
		sh.budget = n
		if n == 0 {
			fmt.Fprintln(sh.out, "budget: engine default")
		} else {
			fmt.Fprintf(sh.out, "budget: %d tuples per worker\n", n)
		}
		return nil

	case `\spill`:
		if len(fields) == 1 {
			fmt.Fprintf(sh.out, "spill: %s\n", sh.spill)
			return nil
		}
		p, err := parajoin.ParseSpillPolicy(fields[1])
		if err != nil {
			return fmt.Errorf(`usage: \spill on|off|always  (%v)`, err)
		}
		sh.spill = p
		fmt.Fprintf(sh.out, "spill: %s\n", p)
		return nil

	case `\count`:
		rule := strings.TrimSpace(strings.TrimPrefix(line, `\count`))
		if rule == "" {
			return fmt.Errorf(`usage: \count <rule>`)
		}
		return sh.runRule(rule, true)

	case `\prepare`:
		after := strings.TrimSpace(strings.TrimPrefix(line, `\prepare`))
		name, rule, ok := strings.Cut(after, " ")
		rule = strings.TrimSpace(rule)
		if !ok || name == "" || rule == "" {
			return fmt.Errorf(`usage: \prepare <name> <rule with ? placeholders>`)
		}
		st := &prepStmt{rule: rule}
		if sh.remote != nil {
			s, err := sh.remote.Prepare(context.Background(), rule)
			if err != nil {
				return err
			}
			st.remote = s
		} else {
			p, err := sh.db.Prepare(rule)
			if err != nil {
				return err
			}
			st.local = p
		}
		if sh.prepared == nil {
			sh.prepared = make(map[string]*prepStmt)
		}
		if old := sh.prepared[name]; old != nil && old.remote != nil {
			_ = old.remote.Close(context.Background())
		}
		sh.prepared[name] = st
		fmt.Fprintf(sh.out, "prepared %s (%d param(s)): %s\n", name, st.numParams(), rule)
		return nil

	case `\exec`:
		if len(fields) < 2 {
			return fmt.Errorf(`usage: \exec <name> [args...]`)
		}
		st := sh.prepared[fields[1]]
		if st == nil {
			return fmt.Errorf("no prepared statement %q (see \\stmts)", fields[1])
		}
		args := make([]int64, 0, len(fields)-2)
		for _, f := range fields[2:] {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return fmt.Errorf("argument %q is not an integer", f)
			}
			args = append(args, v)
		}
		return sh.execPrepared(st, args)

	case `\stmts`:
		if len(sh.prepared) == 0 {
			fmt.Fprintln(sh.out, "no prepared statements")
			return nil
		}
		names := make([]string, 0, len(sh.prepared))
		for name := range sh.prepared {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st := sh.prepared[name]
			fmt.Fprintf(sh.out, "%-16s %d param(s)  %s\n", name, st.numParams(), st.rule)
		}
		return nil

	case `\explain`:
		rule := strings.TrimSpace(strings.TrimPrefix(line, `\explain`))
		if rule == "" {
			return fmt.Errorf(`usage: \explain <rule>`)
		}
		if sh.remote != nil {
			out, err := sh.remote.Explain(context.Background(), rule, sh.queryOptions())
			if err != nil {
				return err
			}
			fmt.Fprint(sh.out, out)
			return nil
		}
		q, err := sh.db.Query(rule)
		if err != nil {
			return err
		}
		out, err := q.ExplainAnalyze(context.Background(), sh.strategy)
		if err != nil {
			return err
		}
		fmt.Fprint(sh.out, out)
		return nil
	}
	return fmt.Errorf("unknown command %s", fields[0])
}

// clusterStatus prints the elastic-cluster view. Remote mode asks the
// server (OpCluster); the in-process engine has no membership, so local
// mode prints the single-node equivalent — workers and loaded relations.
func (sh *shell) clusterStatus() error {
	if sh.remote == nil {
		fmt.Fprintf(sh.out, "local mode: %d in-process workers, no cluster membership\n", sh.db.Workers())
		for _, name := range sh.db.Relations() {
			fmt.Fprintf(sh.out, "  %-16s %d rows (round-robin across workers)\n", name, sh.db.Cardinality(name))
		}
		return nil
	}
	info, err := sh.remote.Cluster(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(sh.out, "catalog v%d, %d workers\n", info.CatalogVersion, info.Workers)
	if len(info.Members) > 0 {
		fmt.Fprintf(sh.out, "%-4s %-16s %-22s %-8s %s\n", "id", "name", "addr", "state", "slots")
		for _, m := range info.Members {
			fmt.Fprintf(sh.out, "%-4d %-16s %-22s %-8s %d\n", m.ID, m.Name, m.Addr, m.State, m.Slots)
		}
	}
	if len(info.Partitions) > 0 {
		fmt.Fprintf(sh.out, "%-16s %-6s %-16s %10s %12s\n", "relation", "slot", "owner", "tuples", "bytes")
		for _, p := range info.Partitions {
			fmt.Fprintf(sh.out, "%-16s %-6d %-16s %10d %12d\n", p.Relation, p.Slot, p.Owner, p.Tuples, p.Bytes)
		}
	}
	return nil
}

func (sh *shell) queryOptions() client.QueryOptions {
	strat := string(sh.strategy)
	if sh.strategy == parajoin.Auto {
		strat = "" // let the server's planner choose
	}
	opts := client.QueryOptions{Strategy: strat, BudgetTuples: sh.budget}
	if sh.spill != parajoin.SpillDefault {
		opts.Spill = sh.spill.String()
	}
	return opts
}

// runOptions are the local-mode analogue of queryOptions.
func (sh *shell) runOptions() parajoin.RunOptions {
	return parajoin.RunOptions{
		Strategy:       sh.strategy,
		MaxLocalTuples: sh.budget,
		Spill:          sh.spill,
	}
}

// cardinality reports a relation's row count in either mode.
func (sh *shell) cardinality(name string) int {
	if sh.remote == nil {
		return sh.db.Cardinality(name)
	}
	rels, err := sh.remote.Relations(context.Background())
	if err != nil {
		return 0
	}
	for _, r := range rels {
		if r.Name == name {
			return r.Rows
		}
	}
	return 0
}

func (sh *shell) runRule(rule string, countOnly bool) error {
	if sh.remote != nil {
		return sh.runRemote(rule, countOnly)
	}
	q, err := sh.db.Query(rule)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if countOnly {
		n, st, err := q.CountWithOptions(ctx, sh.runOptions())
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "count = %d  wall=%v shuffled=%d%s [%s]\n",
			n, st.Wall.Round(time.Millisecond), st.TuplesShuffled, spillNote(st.SpilledBytes, st.SpillSegments), st.Strategy)
		return nil
	}
	res, err := q.RunWithOptions(ctx, sh.runOptions())
	if err != nil {
		return err
	}
	st := res.Stats
	extra := ""
	if st.HyperCubeShares != "" {
		extra = ", shares " + st.HyperCubeShares
	}
	fmt.Fprintf(sh.out, "%d rows  wall=%v shuffled=%d skew=%.2f%s%s [%s%s]\n",
		len(res.Rows), st.Wall.Round(time.Millisecond), st.TuplesShuffled,
		st.MaxConsumerSkew, spillNote(st.SpilledBytes, st.SpillSegments),
		cacheNote(st.ResultCached), st.Strategy, extra)
	fmt.Fprintf(sh.out, "%v\n", res.Columns)
	sh.printRows(res.Rows)
	return nil
}

func (sh *shell) printRows(rows [][]int64) {
	for i, row := range rows {
		if i >= sh.limit {
			fmt.Fprintf(sh.out, "... %d more rows (\\limit to adjust)\n", len(rows)-i)
			break
		}
		fmt.Fprintln(sh.out, row)
	}
}

// spillNote renders spill activity for result lines; empty when the query
// never touched disk.
func spillNote(bytes, segments int64) string {
	if segments == 0 {
		return ""
	}
	return fmt.Sprintf(" spilled=%dB/%dseg", bytes, segments)
}

// cacheNote marks result lines the result cache answered.
func cacheNote(resultCached bool) string {
	if resultCached {
		return " cached=result"
	}
	return ""
}

// execPrepared runs one prepared statement with bound arguments in
// whichever mode prepared it.
func (sh *shell) execPrepared(st *prepStmt, args []int64) error {
	ctx := context.Background()
	if st.remote != nil {
		res, err := st.remote.ExecuteWith(ctx, sh.queryOptions(), args...)
		if err != nil {
			return err
		}
		s := res.Stats
		fmt.Fprintf(sh.out, "%d rows  wall=%v queue-wait=%v shuffled=%d%s%s%s [%s]\n",
			len(res.Rows), s.Wall.Round(time.Millisecond), s.QueueWait.Round(time.Millisecond),
			s.TuplesShuffled, attemptNote(s.Attempts, s.RetryCause), remoteNote(s.RemoteFragments),
			cacheNote(s.ResultCached), s.Strategy)
		fmt.Fprintf(sh.out, "%v\n", res.Columns)
		sh.printRows(res.Rows)
		return nil
	}
	res, err := st.local.ExecuteWithOptions(ctx, sh.runOptions(), args...)
	if err != nil {
		return err
	}
	s := res.Stats
	fmt.Fprintf(sh.out, "%d rows  wall=%v shuffled=%d%s [%s]\n",
		len(res.Rows), s.Wall.Round(time.Millisecond), s.TuplesShuffled,
		cacheNote(s.ResultCached), s.Strategy)
	fmt.Fprintf(sh.out, "%v\n", res.Columns)
	sh.printRows(res.Rows)
	return nil
}

// remoteNote renders where the operators ran when it was not the
// coordinator: "remote=3" means three data nodes executed the fragments.
func remoteNote(fragments int) string {
	if fragments == 0 {
		return ""
	}
	return fmt.Sprintf(" remote=%d", fragments)
}

// attemptNote renders the server's automatic re-executions for result
// lines; empty on first-attempt successes (the overwhelmingly common case).
func attemptNote(attempts int64, cause string) string {
	if attempts <= 1 {
		return ""
	}
	if cause != "" {
		return fmt.Sprintf(" attempts=%d (retried: %s)", attempts, cause)
	}
	return fmt.Sprintf(" attempts=%d", attempts)
}

// runRemote evaluates a rule on the connected parajoind server.
func (sh *shell) runRemote(rule string, countOnly bool) error {
	ctx := context.Background()
	if countOnly {
		n, st, err := sh.remote.Count(ctx, rule, sh.queryOptions())
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "count = %d  wall=%v queue-wait=%v shuffled=%d%s%s%s [%s]\n",
			n, st.Wall.Round(time.Millisecond), st.QueueWait.Round(time.Millisecond),
			st.TuplesShuffled, spillNote(st.SpilledBytes, st.SpillSegments),
			attemptNote(st.Attempts, st.RetryCause), remoteNote(st.RemoteFragments), st.Strategy)
		return nil
	}
	res, err := sh.remote.Run(ctx, rule, sh.queryOptions())
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Fprintf(sh.out, "%d rows  wall=%v queue-wait=%v shuffled=%d skew=%.2f%s%s%s%s [%s]\n",
		len(res.Rows), st.Wall.Round(time.Millisecond), st.QueueWait.Round(time.Millisecond),
		st.TuplesShuffled, st.MaxConsumerSkew, spillNote(st.SpilledBytes, st.SpillSegments),
		attemptNote(st.Attempts, st.RetryCause), remoteNote(st.RemoteFragments),
		cacheNote(st.ResultCached), st.Strategy)
	fmt.Fprintf(sh.out, "%v\n", res.Columns)
	sh.printRows(res.Rows)
	return nil
}
