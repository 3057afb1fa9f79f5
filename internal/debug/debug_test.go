package debug

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"parajoin/internal/trace"
)

func get(t *testing.T, url string) (int, string) {
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
	return resp.StatusCode, string(body)
}

func TestServeEndpoints(t *testing.T) {
	ring := trace.NewRing(16)
	ring.Write([]trace.Event{
		{Time: time.Unix(1, 0), Kind: trace.KindRun, Run: 1, Worker: -1, Exchange: -1, Name: "start"},
		{Time: time.Unix(2, 0), Kind: trace.KindOp, Run: 1, Worker: 0, Exchange: -1, Name: "scan R", Tuples: 42},
	})
	addr, err := Serve("127.0.0.1:0", ring)
	if err != nil {
		t.Fatal(err)
	}

	code, body := get(t, "http://"+addr+"/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, `"memstats"`) {
		t.Fatalf("/debug/vars: code=%d, memstats present=%v", code, strings.Contains(body, `"memstats"`))
	}

	code, body = get(t, "http://"+addr+"/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace: code=%d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 {
		t.Fatalf("/debug/trace: %d lines, want 2:\n%s", len(lines), body)
	}
	var e trace.Event
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatalf("/debug/trace line 2 is not JSON: %v", err)
	}
	if e.Name != "scan R" || e.Tuples != 42 {
		t.Fatalf("decoded event %+v", e)
	}

	code, _ = get(t, "http://"+addr+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: code=%d", code)
	}
}

func TestServeWithoutRing(t *testing.T) {
	addr, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	code, _ := get(t, "http://"+addr+"/debug/trace")
	if code != http.StatusNotFound {
		t.Fatalf("/debug/trace without ring: code=%d, want 404", code)
	}
}
