package fault

import (
	"context"
	"errors"
	"testing"
	"time"

	"parajoin/internal/engine"
	"parajoin/internal/rel"
)

func TestParsePlanRoundTrip(t *testing.T) {
	spec := "seed=42;drop:exchange=0,worker=1,nth=3;stall:prob=0.01,delay=5ms;crash:worker=2,nth=1"
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if p.Seed != 42 || len(p.Rules) != 3 {
		t.Fatalf("got seed=%d rules=%d", p.Seed, len(p.Rules))
	}
	want := []Rule{
		{Kind: KindDrop, Exchange: 0, Worker: 1, Nth: 3},
		{Kind: KindStall, Exchange: -1, Worker: -1, Prob: 0.01, Delay: 5 * time.Millisecond},
		{Kind: KindCrash, Exchange: -1, Worker: 2, Nth: 1},
	}
	for i, r := range p.Rules {
		if r != want[i] {
			t.Errorf("rule %d: got %+v, want %+v", i, r, want[i])
		}
	}
	// String renders back into the grammar; reparsing must agree.
	p2, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", p.String(), err)
	}
	if p2.Seed != p.Seed || len(p2.Rules) != len(p.Rules) {
		t.Fatalf("round trip changed the plan: %q vs %q", p.String(), p2.String())
	}
	for i := range p.Rules {
		if p.Rules[i] != p2.Rules[i] {
			t.Errorf("round trip rule %d: %+v vs %+v", i, p.Rules[i], p2.Rules[i])
		}
	}
}

func TestParsePlanRejects(t *testing.T) {
	for _, spec := range []string{
		"",                           // no rules
		"seed=1",                     // no rules
		"explode:nth=1",              // unknown kind
		"drop:nth=1,prob=0.5",        // nth xor prob
		"drop",                       // neither nth nor prob
		"drop:prob=1.5",              // prob out of range
		"stall:nth=1",                // stall needs delay
		"drop:nth=1,delay=5ms",       // delay on non-stall
		"drop:nth=-2",                // negative nth
		"drop:nth=1,count=-1",        // negative count
		"drop:nth=1,banana=2",        // unknown parameter
		"seed=banana;drop:nth=1",     // bad seed
		"drop:nth=1;stall:delay=x1h", // bad duration
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted a bad spec", spec)
		}
	}
}

func TestNthFiresOncePerStream(t *testing.T) {
	p := &Plan{Seed: 1, Rules: []Rule{{Kind: KindDrop, Exchange: -1, Worker: 0, Nth: 2}}}
	inj := p.NewInjector()
	// Stream (exchange 0, worker 0): call 2 fails, calls 1 and 3+ succeed.
	for n := 1; n <= 5; n++ {
		_, err := inj.Send(0, 0)
		if (n == 2) != (err != nil) {
			t.Errorf("exchange 0 call %d: err=%v", n, err)
		}
	}
	// A different exchange is a different stream with its own counter.
	for n := 1; n <= 3; n++ {
		_, err := inj.Send(7, 0)
		if (n == 2) != (err != nil) {
			t.Errorf("exchange 7 call %d: err=%v", n, err)
		}
	}
	// Worker 1 never matches.
	for n := 1; n <= 3; n++ {
		if _, err := inj.Send(0, 1); err != nil {
			t.Errorf("worker 1 call %d unexpectedly faulted: %v", n, err)
		}
	}
	if got := inj.Injected()[KindDrop]; got != 2 {
		t.Errorf("drops fired = %d, want 2", got)
	}
}

func TestNthCountWindow(t *testing.T) {
	p := &Plan{Seed: 1, Rules: []Rule{{Kind: KindDrop, Exchange: -1, Worker: -1, Nth: 2, Count: 3}}}
	inj := p.NewInjector()
	for n := 1; n <= 6; n++ {
		_, err := inj.Send(0, 0)
		want := n >= 2 && n <= 4
		if want != (err != nil) {
			t.Errorf("call %d: err=%v, want fault=%v", n, err, want)
		}
	}
}

func TestProbDeterministicPerSeed(t *testing.T) {
	plan := func(seed int64) *Plan {
		return &Plan{Seed: seed, Rules: []Rule{{Kind: KindDrop, Exchange: -1, Worker: -1, Prob: 0.3}}}
	}
	record := func(p *Plan) []bool {
		inj := p.NewInjector()
		out := make([]bool, 200)
		for n := range out {
			_, err := inj.Send(3, 1)
			out[n] = err != nil
		}
		return out
	}
	a, b := record(plan(99)), record(plan(99))
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
		if a[i] {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Fatalf("prob=0.3 fired %d/%d times — not probabilistic", fires, len(a))
	}
	c := record(plan(100))
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical decisions")
	}
}

func TestCrashAndRecvKinds(t *testing.T) {
	p, err := ParsePlan("seed=5;crash:worker=1,nth=1;recv-err:worker=2,nth=1")
	if err != nil {
		t.Fatal(err)
	}
	inj := p.NewInjector()
	if err := inj.CloseSend(0, 0); err != nil {
		t.Errorf("worker 0 close faulted: %v", err)
	}
	if err := inj.CloseSend(0, 1); err == nil {
		t.Error("worker 1 close did not fault")
	} else if !errors.Is(err, ErrInjected) {
		t.Errorf("crash error %v does not wrap ErrInjected", err)
	}
	if err := inj.Recv(0, 1); err != nil {
		t.Errorf("worker 1 recv faulted: %v", err)
	}
	if err := inj.Recv(0, 2); err == nil {
		t.Error("worker 2 recv did not fault")
	}
}

// hostedTransport returns the in-process transport of a 2-worker cluster.
func hostedTransport(t *testing.T) *engine.TCPTransport {
	c := engine.NewCluster(2)
	t.Cleanup(func() { c.Close() })
	return c.Transport().(*engine.TCPTransport)
}

// Wrapping the in-process transport: injected errors must classify as
// retryable transport failures and metering/epoch release must see through
// the wrapper.
func TestWrapTransport(t *testing.T) {
	inner := hostedTransport(t)
	p := &Plan{Seed: 1, Rules: []Rule{
		{Kind: KindDrop, Exchange: -1, Worker: 0, Nth: 2},
		{Kind: KindStall, Exchange: -1, Worker: 1, Nth: 1, Delay: time.Millisecond},
	}}
	inj := p.NewInjector()
	tr := Wrap(inner, inj)
	ctx := context.Background()
	batch := rel.BatchOf(2, 1, []int64{1, 2})

	if err := tr.Send(ctx, 0, 0, 1, batch); err != nil {
		t.Fatalf("first send: %v", err)
	}
	err := tr.Send(ctx, 0, 0, 1, batch)
	if err == nil {
		t.Fatal("second send did not fault")
	}
	if !errors.Is(err, engine.ErrTransport) || !errors.Is(err, ErrInjected) {
		t.Fatalf("injected error %v must wrap engine.ErrTransport and ErrInjected", err)
	}
	if !engine.Retryable(err) {
		t.Fatalf("injected error %v must be retryable", err)
	}

	// Stall delays but delivers.
	start := time.Now()
	if err := tr.Send(ctx, 0, 1, 1, batch); err != nil {
		t.Fatalf("stalled send: %v", err)
	}
	if d := time.Since(start); d < time.Millisecond {
		t.Errorf("stall took %v, want >= 1ms", d)
	}

	// Metering sees through the wrapper: 2 delivered batches.
	st := tr.TransportStats()
	if st.BatchesSent != 2 {
		t.Errorf("BatchesSent = %d, want 2 (dropped send must not count)", st.BatchesSent)
	}

	// Epoch release reaches the inner transport.
	tr.ReleaseEpoch(0)
	if n := inner.QueueCount(); n != 0 {
		t.Errorf("QueueCount after ReleaseEpoch = %d, want 0", n)
	}
}

// A stalled send aborts promptly when its context dies mid-stall.
func TestStallRespectsContext(t *testing.T) {
	inner := hostedTransport(t)
	p := &Plan{Seed: 1, Rules: []Rule{{Kind: KindStall, Exchange: -1, Worker: -1, Nth: 1, Delay: time.Hour}}}
	tr := Wrap(inner, p.NewInjector())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := tr.Send(ctx, 0, 0, 1, rel.BatchOf(1, 1, []int64{1}))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("stall ignored the dying context")
	}
}
