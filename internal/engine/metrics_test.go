package engine

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestSkewHelper(t *testing.T) {
	if got := skew([]int64{0, 0, 0, 0}); got != 1 {
		t.Errorf("no traffic skew = %f, want 1", got)
	}
	if got := skew([]int64{0, 100, 0, 0}); got != 4 {
		t.Errorf("all-on-one skew = %f, want 4", got)
	}
	if got := skew([]int64{25, 25, 25, 25}); got != 1 {
		t.Errorf("balanced skew = %f, want 1", got)
	}
}

func TestReportAggregates(t *testing.T) {
	r := &Report{
		Workers:   4,
		CPUTime:   3 * time.Second,
		BusyTime:  []time.Duration{time.Second, 2 * time.Second, time.Second, 0},
		Processed: []int64{10, 40, 20, 30},
		Exchanges: []ExchangeReport{
			{Sent: []int64{25, 25, 25, 25}, Received: []int64{50, 50, 0, 0}},
			{Sent: []int64{3, 0, 0, 0}, Received: []int64{3, 0, 0, 0}}, // tiny: excluded from skew
		},
	}
	if r.TotalTuplesShuffled() != 103 {
		t.Errorf("total shuffled = %d", r.TotalTuplesShuffled())
	}
	if r.TotalBusy() != 4*time.Second {
		t.Errorf("total busy = %v", r.TotalBusy())
	}
	if r.TotalCPU() != 3*time.Second {
		t.Errorf("TotalCPU should prefer measured process CPU, got %v", r.TotalCPU())
	}
	if r.MaxBusy() != 2*time.Second {
		t.Errorf("max busy = %v", r.MaxBusy())
	}
	if r.BusySkew() != 2 {
		t.Errorf("busy skew = %f, want 2", r.BusySkew())
	}
	if r.MaxProcessed() != 40 {
		t.Errorf("max processed = %d", r.MaxProcessed())
	}
	// The 3-tuple exchange (below 4×workers) must not dominate the skew.
	if got := r.MaxConsumerSkew(); got != 2 {
		t.Errorf("MaxConsumerSkew = %f, want 2 (tiny exchange excluded)", got)
	}
	if s := r.String(); !strings.Contains(s, "shuffled=103") {
		t.Errorf("String() = %q", s)
	}
}

func TestReportCPUFallback(t *testing.T) {
	r := &Report{
		Workers:  2,
		BusyTime: []time.Duration{time.Second, time.Second},
	}
	if r.TotalCPU() != 2*time.Second {
		t.Errorf("TotalCPU without process measurement should fall back to busy sum, got %v", r.TotalCPU())
	}
}

func TestBusySkewNoWork(t *testing.T) {
	r := &Report{Workers: 4, BusyTime: make([]time.Duration, 4)}
	if r.BusySkew() != 1 {
		t.Errorf("idle cluster busy skew = %f, want 1", r.BusySkew())
	}
}

func TestProcessCPUAdvances(t *testing.T) {
	a := processCPU()
	// Burn a little CPU.
	x := 0
	for i := 0; i < 10_000_000; i++ {
		x += i
	}
	_ = x
	b := processCPU()
	if b < a {
		t.Fatalf("process CPU went backwards: %v -> %v", a, b)
	}
}

func TestMemTransportByteAccounting(t *testing.T) {
	c := NewCluster(4)
	defer c.Close()
	r := randGraph("R", 1000, 200, 77)
	c.Load(r)
	_, report, err := c.Run(context.Background(), shuffleGather("R", []string{"dst"}))
	if err != nil {
		t.Fatal(err)
	}
	// Every worker is hosted in this process, so batches pass by reference:
	// each delivery counts one batch and no bytes cross a socket.
	if report.BytesSent != 0 || report.BytesReceived != 0 {
		t.Fatalf("byte deltas sent=%d received=%d, want 0 both ways", report.BytesSent, report.BytesReceived)
	}
	if report.BatchesSent == 0 || report.BatchesSent != report.BatchesReceived {
		t.Fatalf("batch deltas sent=%d received=%d", report.BatchesSent, report.BatchesReceived)
	}
}

func TestReportDeltasResetBetweenRuns(t *testing.T) {
	c := NewCluster(4)
	defer c.Close()
	r := randGraph("R", 1000, 200, 78)
	c.Load(r)
	plan := shuffleGather("R", []string{"dst"})
	_, first, err := c.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	_, second, err := c.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	// Counters are cumulative on the transport but the report carries
	// per-run deltas, so two identical runs report identical traffic.
	if first.BytesSent != second.BytesSent {
		t.Fatalf("per-run byte deltas drifted: %d then %d", first.BytesSent, second.BytesSent)
	}
}
