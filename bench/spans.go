package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the bench from outside
// the program: nothing inside parajoin is instrumented. Spans of one
// operation share OpID (workload/pass/op); Parent is the index of the span
// that caused this one, -1 for an operation's root.
type span struct {
	Name   string        `json:"name"`
	OpID   string        `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"` // since the recorder was created
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced arm of the overhead comparison runs the
// very same code.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name, opID string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, OpID: opID, Parent: parent, Start: time.Since(r.t0)})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.t0)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover. Children may overlap each other or stick out of
// the parent; only the union of their intervals, clipped to the parent,
// counts.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

func (r *recorder) writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
