// Observability tests: the slow-query log must capture finished queries with
// their in-flight EXPLAIN ANALYZE, and the live query table must show a
// query while it is running.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"parajoin/client"
	"parajoin/internal/fault"
	"parajoin/internal/metrics"
	"parajoin/internal/server"
)

// syncBuffer guards a bytes.Buffer so the test can read while the server's
// query goroutines write.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// slowRecord mirrors the slow log's JSONL shape for decoding.
type slowRecord struct {
	Query     int64   `json:"query"`
	Op        string  `json:"op"`
	Rule      string  `json:"rule"`
	Outcome   string  `json:"outcome"`
	Elapsed   float64 `json:"elapsed_seconds"`
	QueueWait float64 `json:"queue_wait_seconds"`
	Attempts  int64   `json:"attempts"`
	Rows      int64   `json:"rows"`
	Explain   string  `json:"explain"`
}

func TestSlowQueryLogRecordsExplain(t *testing.T) {
	log := &syncBuffer{}
	// Threshold 0 logs every query, so the test doesn't depend on timing.
	_, addr, _ := chaosServer(t, nil, server.Config{
		SlowQueryLog:       log,
		SlowQueryThreshold: 0,
	})
	c := dial(t, addr)
	defer c.Close()

	res, err := c.Run(context.Background(), triRule, client.QueryOptions{Strategy: "hc_tj"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("triangle query returned no rows")
	}

	// The log line is written on the query goroutine; give it a moment.
	var line string
	deadline := time.Now().Add(5 * time.Second)
	for line == "" && time.Now().Before(deadline) {
		if s := strings.TrimSpace(log.String()); s != "" {
			line = strings.Split(s, "\n")[0]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if line == "" {
		t.Fatal("no slow-log record written")
	}

	var rec slowRecord
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("slow-log line is not JSON: %v\n%s", err, line)
	}
	if rec.Outcome != "ok" {
		t.Errorf("outcome = %q, want ok", rec.Outcome)
	}
	if rec.Rule != triRule {
		t.Errorf("rule = %q, want %q", rec.Rule, triRule)
	}
	if rec.Op != "run" {
		t.Errorf("op = %q, want run", rec.Op)
	}
	if rec.Rows != int64(len(res.Rows)) {
		t.Errorf("rows = %d, want %d", rec.Rows, len(res.Rows))
	}
	if rec.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", rec.Attempts)
	}
	if rec.Elapsed <= 0 {
		t.Errorf("elapsed_seconds = %g, want > 0", rec.Elapsed)
	}
	// The EXPLAIN ANALYZE of the actual run, captured in-flight: it must
	// mention the physical plan and per-operator actuals.
	if rec.Explain == "" {
		t.Fatal("slow-log record has no explain")
	}
	if !strings.Contains(rec.Explain, "rows=") {
		t.Errorf("explain lacks per-operator actuals:\n%s", rec.Explain)
	}
}

func TestSlowQueryLogThresholdSkipsFastQueries(t *testing.T) {
	log := &syncBuffer{}
	_, addr, _ := chaosServer(t, nil, server.Config{
		SlowQueryLog:       log,
		SlowQueryThreshold: time.Hour, // nothing is that slow
	})
	c := dial(t, addr)
	defer c.Close()

	if _, err := c.Run(context.Background(), triRule, client.QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := log.String(); got != "" {
		t.Fatalf("fast query was logged:\n%s", got)
	}
}

// A stalled query must appear in the live in-flight table (the data behind
// /debug/queries) with its stage, attempt and resident tuples, and
// disappear once done.
func TestInflightQueryTableShowsRunningQuery(t *testing.T) {
	// Stall the first 200 sends of every exchange stream 20ms each: the
	// query stays mid-run long enough to be observed, then completes.
	plan, err := fault.ParsePlan("seed=1;stall:nth=1,count=200,delay=20ms")
	if err != nil {
		t.Fatal(err)
	}
	_, addr, _ := chaosServer(t, plan, server.Config{})
	c := dial(t, addr)
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), triRule,
			client.QueryOptions{Strategy: "hc_tj", Spill: "on-pressure"})
		done <- err
	}()

	// Poll until the query finishes: the Tributary sorters' reservations
	// must show up as mem_tuples while it runs.
	var seen *metrics.QuerySnapshot
	var memTuples int64
	for running := true; running; {
		for _, q := range metrics.InflightQueries() {
			if q.Rule == triRule && strings.HasPrefix(q.Stage, "executing") {
				snap := q
				seen = &snap
				memTuples = max(memTuples, q.MemTuples)
			}
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		case <-time.After(2 * time.Millisecond):
		}
	}
	if seen == nil {
		t.Fatal("query never appeared in the in-flight table with an executing stage")
	}
	if seen.Attempt < 1 {
		t.Errorf("attempt = %d, want >= 1", seen.Attempt)
	}
	if seen.Elapsed <= 0 {
		t.Errorf("elapsed = %v, want > 0", seen.Elapsed)
	}
	if memTuples <= 0 {
		t.Error("mem_tuples never read above 0 while the query ran")
	}

	// Finished queries leave the table.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		gone := true
		for _, q := range metrics.InflightQueries() {
			if q.Rule == triRule {
				gone = false
			}
		}
		if gone {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("finished query is still in the in-flight table")
}
