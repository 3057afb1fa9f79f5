package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"parajoin/internal/core"
	"parajoin/internal/ljoin"
	"parajoin/internal/order"
	"parajoin/internal/rel"
)

// OrderStudy reproduces Table 7 and Figure 12: for a query, run the
// single-machine Tributary join under sampled random variable orders and
// under the cost model's best order, recording estimated cost against
// actual runtime and the correlation between them.
type OrderStudy struct {
	Query string
	// Samples pairs each tried order with its estimate and measurement.
	Samples []OrderSample
	// Best is the cost model's pick.
	Best OrderSample
	// AvgRandom is the mean runtime of the random samples (timeouts count
	// at the timeout value, mirroring the paper's 1000 s cap).
	AvgRandom time.Duration
	// Correlation is Pearson's r between log-estimated cost and runtime.
	Correlation float64
}

// OrderSample is one (order, estimate, measurement) triple.
type OrderSample struct {
	Order    []core.Var
	Estimate float64
	Runtime  time.Duration
	Seeks    int64
	TimedOut bool
}

// OrderStudy samples n random variable orders for the named query (the
// paper uses 20), plus the model's best order. Runs are capped at timeout.
// Results are cached per (query, n, timeout) so Table 7 and Figure 12 share
// one pass.
func (s *Suite) OrderStudy(queryName string, n int, timeout time.Duration) (*OrderStudy, error) {
	cacheKey := fmt.Sprintf("%s/%d/%s", queryName, n, timeout)
	s.mu.Lock()
	if s.orderCache == nil {
		s.orderCache = map[string]*OrderStudy{}
	}
	if cached, ok := s.orderCache[cacheKey]; ok {
		s.mu.Unlock()
		return cached, nil
	}
	s.mu.Unlock()
	w := s.Workload()
	q := w.Query(queryName)
	rels, err := w.AtomRelations(q)
	if err != nil {
		return nil, err
	}
	est, err := order.NewEstimatorWith(q, rels, w.Catalog())
	if err != nil {
		return nil, err
	}

	out := &OrderStudy{Query: queryName}
	for _, ord := range est.RandomOrders(n, s.Seed) {
		sample, err := runOrderSample(q, rels, est, ord, timeout)
		if err != nil {
			return nil, err
		}
		out.Samples = append(out.Samples, sample)
		out.AvgRandom += sample.Runtime
	}
	if len(out.Samples) > 0 {
		out.AvgRandom /= time.Duration(len(out.Samples))
	}

	bestOrd, _, err := est.Best(5040, s.Seed)
	if err != nil {
		return nil, err
	}
	out.Best, err = runOrderSample(q, rels, est, bestOrd, timeout)
	if err != nil {
		return nil, err
	}
	out.Correlation = pearson(out.Samples)
	s.mu.Lock()
	s.orderCache[cacheKey] = out
	s.mu.Unlock()
	return out, nil
}

func runOrderSample(q *core.Query, rels map[string]*rel.Relation, est *order.Estimator, ord []core.Var, timeout time.Duration) (OrderSample, error) {
	cost, err := est.Cost(ord)
	if err != nil {
		return OrderSample{}, err
	}
	sample := OrderSample{Order: ord, Estimate: cost}

	p, err := ljoin.Prepare(q, rels, ord)
	if err != nil {
		return OrderSample{}, err
	}
	deadline := time.Now().Add(timeout)
	// The stop check fires inside the join recursion, so even an order that
	// emits nothing for a long time is bounded by the deadline (the paper
	// kills queries at 1000 s).
	p.SetStopCheck(func() bool { return time.Now().After(deadline) })
	start := time.Now()
	err = p.Run(func(rel.Tuple) bool { return true })
	if err != nil {
		return OrderSample{}, err
	}
	sample.TimedOut = p.Stopped()
	sample.Runtime = time.Since(start)
	if sample.TimedOut {
		sample.Runtime = timeout
	}
	sample.Seeks = p.Stats().Seeks
	return sample, nil
}

// pearson computes the correlation between log10(estimate) and runtime.
func pearson(samples []OrderSample) float64 {
	if len(samples) < 2 {
		return 0
	}
	xs := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = math.Log10(s.Estimate + 1)
		ys[i] = float64(s.Runtime)
	}
	mx, my := mean(xs), mean(ys)
	var num, dx, dy float64
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		dx += (xs[i] - mx) * (xs[i] - mx)
		dy += (ys[i] - my) * (ys[i] - my)
	}
	if dx == 0 || dy == 0 {
		return 0
	}
	return num / math.Sqrt(dx*dy)
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Render prints the study: the Table-7 row plus the Figure-12 scatter.
func (o *OrderStudy) Render(w io.Writer) {
	fmt.Fprintf(w, "%s: variable-order study (Table 7 / Figure 12)\n", o.Query)
	fmt.Fprintf(w, "average runtime over %d random orders: %v\n", len(o.Samples), o.AvgRandom.Round(time.Microsecond))
	fmt.Fprintf(w, "runtime with the cost model's best order: %v (estimate %.3g)\n",
		o.Best.Runtime.Round(time.Microsecond), o.Best.Estimate)
	fmt.Fprintf(w, "correlation(log est, runtime) = %.3f\n", o.Correlation)
	fmt.Fprintf(w, "%-30s %14s %14s %12s\n", "order", "estimate", "runtime", "seeks")
	for _, s := range o.Samples {
		suffix := ""
		if s.TimedOut {
			suffix = " (timeout)"
		}
		fmt.Fprintf(w, "%-30s %14.4g %14v %12d%s\n", fmt.Sprint(s.Order), s.Estimate, s.Runtime.Round(time.Microsecond), s.Seeks, suffix)
	}
}
