// External tests: the endpoint matrix and the /metrics-scrape-during-query
// race live outside package debug so they can drive real queries through the
// root parajoin package (which internal/debug must not import).
package debug_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"parajoin"
	"parajoin/internal/debug"
	"parajoin/internal/trace"
)

func fetch(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// Every diagnostics endpoint must answer with the right status and
// content-type so scrapers and dashboards can consume them unmediated.
func TestEndpointStatusAndContentType(t *testing.T) {
	srv, err := debug.NewServer("127.0.0.1:0", trace.NewRing(16))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	cases := []struct {
		path        string
		contentType string
	}{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/debug/vars", "application/json; charset=utf-8"},
		{"/debug/queries", "application/json"},
		{"/debug/trace", "application/x-ndjson"},
	}
	for _, c := range cases {
		code, ct, _ := fetch(t, base+c.path)
		if code != http.StatusOK {
			t.Errorf("%s: status %d, want 200", c.path, code)
		}
		if ct != c.contentType {
			t.Errorf("%s: content-type %q, want %q", c.path, ct, c.contentType)
		}
	}
}

// /metrics must expose the blank-imported subsystems' families even in a
// process that never ran a query.
func TestMetricsFamiliesPresent(t *testing.T) {
	srv, err := debug.NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	_, _, body := fetch(t, "http://"+srv.Addr()+"/metrics")
	for _, family := range []string{
		"parajoin_engine_runs_started_total",
		"parajoin_exchange_tuples_total",
		"parajoin_tcp_straggler_frames_total",
		"parajoin_spill_seals_total",
	} {
		if !strings.Contains(body, "# TYPE "+family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
}

func TestServerClose(t *testing.T) {
	srv, err := debug.NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if code, _, _ := fetch(t, "http://"+addr+"/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics before Close: status %d", code)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("request after Close succeeded, want connection error")
	}
}

// Scrape /metrics continuously while queries run: the registry's sharded
// locks and the histograms' atomics must hold up under the race detector.
func TestMetricsScrapeDuringQuery(t *testing.T) {
	srv, err := debug.NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := "http://" + srv.Addr() + "/metrics"

	db := parajoin.Open(4)
	defer db.Close()
	var edges [][2]int64
	for i := int64(0); i < 60; i++ {
		edges = append(edges, [2]int64{i, (i + 1) % 60}, [2]int64{i, (i + 7) % 60})
	}
	if err := db.LoadEdges("E", edges); err != nil {
		t.Fatal(err)
	}
	q, err := db.Query("Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)")
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					return // server closing down
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < 4; i++ {
		if _, err := q.Run(context.Background()); err != nil {
			close(done)
			wg.Wait()
			t.Fatalf("run %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()

	// The runs must be visible in the scrape afterwards.
	_, _, body := fetch(t, url)
	if !strings.Contains(body, "parajoin_engine_runs_completed_total") {
		t.Fatal("scrape after queries is missing parajoin_engine_runs_completed_total")
	}
	var completed float64
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "parajoin_engine_runs_completed_total ") {
			fmt.Sscanf(line, "parajoin_engine_runs_completed_total %g", &completed)
		}
	}
	if completed < 4 {
		t.Fatalf("parajoin_engine_runs_completed_total = %g, want >= 4", completed)
	}
}
