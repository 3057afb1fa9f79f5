package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"parajoin"
	"parajoin/internal/dataset"
	"parajoin/internal/queries"
	"parajoin/internal/rel"
)

// opSpec is one entry of a workload's pass, before inputs exist.
type opSpec struct {
	query    string // Q1..Q8 of internal/queries, or "P2" / "Hop2" below
	strategy string // wire strategy name; "auto" lets the daemon's planner choose
	// ref is how the expected answer is computed, always by a path the timed
	// op does not take: "naive" (ljoin.NaiveEvaluate, where affordable) or a
	// strategy sharing neither shuffle nor join with the timed one.
	ref string
	// lookups > 0 expands the spec into that many executions of the prepared
	// statement with seeded Zipf arguments.
	lookups int
}

// Rules that are not part of the paper's Q1–Q8 suite.
const (
	// ruleP2 is the two-hop path: tiny plan, huge answer.
	ruleP2 = "P2(x,y,z) :- Twitter(x,y), Twitter(y,z)"
	// ruleHop2 is the prepared point lookup of selective_serve.
	ruleHop2 = "Hop2(z) :- Twitter(?,y), Twitter(y,z)"
)

// workload is one served traffic mix. See README.md for why each exists.
type workload struct {
	name    string
	why     string
	edges   int // Twitter stand-in size; nodes is fixed at graphNodes
	kb      bool
	clients int
	pass    []opSpec
	// dist runs a coordinator plus distMembers data-node processes with
	// distributed execution on; every op must report that many remote
	// fragments.
	dist bool
	// memLimit > 0 starts the daemon with -mem-limit so every op spills.
	memLimit int64
	// pinIDs keeps the generator's node ids: the seed then only shuffles row
	// order. Under a memory budget the engine's cost has a cliff that depends
	// on which ids hash to which worker (see README.md, "What the seed
	// varies"), and a benchmark has to stay off it to be steady.
	pinIDs bool
}

const (
	graphNodes  = 1500
	graphSkew   = 1.3
	distMembers = 2
	partSlots   = 8
	// The shape of the generated data is pinned: degree distribution decides
	// join output sizes, and a benchmark whose work moves 20 % between seeds
	// cannot resolve a 10 % regression. --seed varies everything the engine
	// must not be tuned to — node ids (hence every hash placement), row
	// order, and lookup arguments — and leaves the shape alone.
	shapeSeed = 42
	// spillMemLimit is the -mem-limit of spill_pressure. The daemon carves it
	// evenly over its 4 query slots, so each query gets 6 400 tuples per
	// worker: a quarter of the 25.8 k PeakResidentTuples Q2 reaches under
	// hc_tj with no limit, and two thirds of Q1's 9.5 k. Both ops spill (16
	// and 123 segments). At the issue's 1/8 the pass takes 430 ms, too long
	// for 40 timed passes in a run.
	spillMemLimit = 25600
	// daemonWorkers and daemonSlots are parajoind's own defaults, repeated
	// here because the in-process ledger has to mirror them.
	daemonWorkers = 8
	daemonSlots   = 4
)

var workloads = []workload{
	{
		name:    "cyclic_hc_tj",
		why:     "paper's headline plan: HyperCube shuffle, per-worker sort, Tributary join; no hash join, no encoding",
		edges:   10000,
		clients: 1,
		pass: []opSpec{
			{query: "Q1", strategy: "hc_tj", ref: "rs_hj"},
			{query: "Q2", strategy: "hc_tj", ref: "rs_hj"},
			{query: "Q5", strategy: "hc_tj", ref: "rs_hj"},
			{query: "Q6", strategy: "hc_tj", ref: "rs_hj"},
		},
	},
	{
		name:    "cyclic_rs_hj",
		why:     "same queries, opposite plan: intermediate-result shuffles and the hash join do the work; ljoin seeks are 0",
		edges:   10000,
		clients: 1,
		pass: []opSpec{
			{query: "Q1", strategy: "rs_hj", ref: "hc_tj"},
			{query: "Q6", strategy: "rs_hj", ref: "hc_tj"},
		},
	},
	{
		name:    "selective_serve",
		why:     "latency floor: ms-sized queries from two connections, so client, wire, admission and planner dominate",
		edges:   10000,
		kb:      true,
		clients: 2,
		pass: []opSpec{
			{query: "Q7", strategy: "auto", ref: "naive"},
			{query: "Q3", strategy: "auto", ref: "br_hj"},
			{query: "Hop2", strategy: "auto", ref: "naive", lookups: 8},
		},
	},
	{
		name:    "result_stream",
		why:     "one request, a 220k-row answer: result merge, colbatch encode, JSON/base64 framing and client decode dominate",
		edges:   18000,
		clients: 1,
		pass: []opSpec{
			{query: "P2", strategy: "rs_hj", ref: "hc_tj"},
			{query: "Q5", strategy: "hc_tj", ref: "rs_hj"},
		},
	},
	{
		name:    "dist_2node",
		why:     "only workload crossing fragment dispatch, the TCP exchange and partstore: coordinator plus 2 data-node processes",
		edges:   10000,
		clients: 1,
		dist:    true,
		pass: []opSpec{
			{query: "Q1", strategy: "hc_tj", ref: "rs_hj"},
			{query: "Q1", strategy: "rs_hj", ref: "hc_tj"},
			{query: "Q6", strategy: "hc_tj", ref: "rs_hj"},
		},
	},
	{
		name:     "spill_pressure",
		why:      "same sort and colbatch layers under a 1/4 memory budget: external merge, spill segment write and read",
		edges:    10000,
		clients:  1,
		memLimit: spillMemLimit,
		pinIDs:   true,
		pass: []opSpec{
			{query: "Q1", strategy: "hc_tj", ref: "rs_hj"},
			{query: "Q2", strategy: "hc_tj", ref: "rs_hj"},
		},
	},
}

// memberNames are dist_2node's data nodes, in the sorted order the cluster
// numbers its workers by.
func memberNames() []string {
	names := make([]string, distMembers)
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i+1)
	}
	return names
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// op is one concrete operation of a pass: rule text as the daemon receives
// it, plus what a correct answer looks like.
type op struct {
	label    string
	rule     string // sent with Run, or the "?" rule to Prepare
	strategy string // "" on the wire means auto
	prepared bool
	args     []int64
	// bound is the rule with args inlined: what the reference evaluates.
	bound string
	ref   string
	want  answer
}

func (o *op) wireStrategy() string {
	if o.strategy == "auto" {
		return ""
	}
	return o.strategy
}

// inputs is everything a workload's daemons and clients receive, a pure
// function of (workload, seed).
type inputs struct {
	rels map[string]*rel.Relation
	ops  []op
}

func (in *inputs) relNames() []string {
	names := make([]string, 0, len(in.rels))
	for n := range in.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// loadInto registers every relation with an in-process database, in name
// order.
func (in *inputs) loadInto(db *parajoin.DB) error {
	for _, name := range in.relNames() {
		r := in.rels[name]
		rows := make([][]int64, len(r.Tuples))
		for i, t := range r.Tuples {
			rows[i] = t
		}
		if err := db.Load(name, r.Schema, rows); err != nil {
			return err
		}
	}
	return nil
}

// idSpace is the width of the KB generator's per-entity-type id ranges
// (actors at 1e6, films at 2e6, …). Values below it are dictionary codes and
// years, which query constants refer to and relabeling must leave alone.
const idSpace = 1_000_000

// generate builds a workload's inputs from the seed. Rule text comes from
// internal/queries with string constants already replaced by their
// dictionary codes, which is how the CSVs carry them too: the daemon never
// sees a string.
func generate(w *workload, seed int64) *inputs {
	suite := queries.New(dataset.GraphConfig{Edges: w.edges, Nodes: graphNodes, Skew: graphSkew, Seed: shapeSeed}, dataset.DefaultKB())

	rng := rand.New(rand.NewSource(seed))
	in := &inputs{rels: map[string]*rel.Relation{}}
	srcs := []*rel.Relation{suite.Relations["Twitter"]}
	if w.kb {
		srcs = append(srcs, suite.KB.Relations()...)
	}
	nodePerm := rng.Perm(graphNodes)
	kbPerms := kbIDPerms(suite.KB.Relations(), rng)
	for _, src := range srcs {
		out := rel.New(src.Name, src.Schema...)
		for _, t := range src.Tuples {
			row := make(rel.Tuple, len(t))
			for i, v := range t {
				switch {
				case src.Name == "Twitter" && w.pinIDs:
					row[i] = v
				case src.Name == "Twitter":
					row[i] = int64(nodePerm[v])
				case v >= idSpace:
					row[i] = v/idSpace*idSpace + int64(kbPerms[v/idSpace][v%idSpace])
				default:
					row[i] = v
				}
			}
			out.Tuples = append(out.Tuples, row)
		}
		rng.Shuffle(len(out.Tuples), func(i, j int) { out.Tuples[i], out.Tuples[j] = out.Tuples[j], out.Tuples[i] })
		in.rels[src.Name] = out
	}

	for _, spec := range w.pass {
		switch {
		case spec.lookups > 0:
			for _, arg := range lookupArgs(in.rels["Twitter"], rng, spec.lookups) {
				in.ops = append(in.ops, op{
					label:    fmt.Sprintf("%s(%d)/%s", spec.query, arg, spec.strategy),
					rule:     ruleHop2,
					strategy: spec.strategy,
					prepared: true,
					args:     []int64{arg},
					bound:    fmt.Sprintf("Hop2(z) :- Twitter(%d,y), Twitter(y,z)", arg),
					ref:      spec.ref,
				})
			}
		default:
			rule := ruleP2
			if spec.query != "P2" {
				rule = suite.Query(spec.query).String()
			}
			in.ops = append(in.ops, op{
				label:    spec.query + "/" + spec.strategy,
				rule:     rule,
				strategy: spec.strategy,
				bound:    rule,
				ref:      spec.ref,
			})
		}
	}
	return in
}

// kbIDPerms returns one seeded permutation per KB id range, sized to the
// largest offset any relation uses in it. Ranges are visited in ascending
// order so the rng sequence, and with it every later draw, is deterministic.
func kbIDPerms(kb []*rel.Relation, rng *rand.Rand) map[int64][]int {
	tops := map[int64]int64{}
	for _, r := range kb {
		for _, t := range r.Tuples {
			for _, v := range t {
				if v >= idSpace {
					tops[v/idSpace] = max(tops[v/idSpace], v%idSpace)
				}
			}
		}
	}
	spaces := make([]int64, 0, len(tops))
	for s := range tops {
		spaces = append(spaces, s)
	}
	sort.Slice(spaces, func(i, j int) bool { return spaces[i] < spaces[j] })
	perms := map[int64][]int{}
	for _, s := range spaces {
		perms[s] = rng.Perm(int(tops[s]) + 1)
	}
	return perms
}

// lookupArgs draws n lookup keys Zipf-distributed over the graph's source
// nodes ranked by out-degree, so hubs are asked for most — the shape of real
// point-lookup traffic, and the keys whose 2-hop neighbourhoods are largest.
func lookupArgs(twitter *rel.Relation, rng *rand.Rand, n int) []int64 {
	deg := map[int64]int{}
	for _, t := range twitter.Tuples {
		deg[t[0]]++
	}
	srcs := make([]int64, 0, len(deg))
	for s := range deg {
		srcs = append(srcs, s)
	}
	sort.Slice(srcs, func(i, j int) bool {
		if deg[srcs[i]] != deg[srcs[j]] {
			return deg[srcs[i]] > deg[srcs[j]]
		}
		return srcs[i] < srcs[j]
	})
	z := rand.NewZipf(rng, 1.2, 4, uint64(len(srcs)-1))
	args := make([]int64, n)
	for i := range args {
		args[i] = srcs[z.Uint64()]
	}
	return args
}

// writeCSVs writes one CSV per relation in the format parajoind -load reads
// (header row, integer fields) and returns name → path.
func (in *inputs) writeCSVs(dir string) (map[string]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := map[string]string{}
	for _, name := range in.relNames() {
		path := filepath.Join(dir, name+".csv")
		if err := writeCSV(path, in.rels[name]); err != nil {
			return nil, fmt.Errorf("writing %s: %w", path, err)
		}
		paths[name] = path
	}
	return paths, nil
}

func writeCSV(path string, r *rel.Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, c := range r.Schema {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(c)
	}
	w.WriteByte('\n')
	var num []byte
	for _, t := range r.Tuples {
		for i, v := range t {
			if i > 0 {
				w.WriteByte(',')
			}
			num = strconv.AppendInt(num[:0], v, 10)
			w.Write(num)
		}
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
