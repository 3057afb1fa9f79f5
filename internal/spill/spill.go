package spill

import (
	"errors"
	"fmt"
	"time"
)

// Policy selects how a run behaves when a worker's materialized state
// reaches its tuple budget.
type Policy int

const (
	// Default inherits the enclosing configuration's policy (a Cluster
	// default, or Off at the top).
	Default Policy = iota
	// Off keeps the pre-spill behaviour: exceeding the budget fails the
	// run with an out-of-memory error.
	Off
	// OnPressure seals the in-memory run to the run's spill file when the
	// budget is hit, releasing its reservation; the query completes at
	// disk speed instead of failing.
	OnPressure
	// Always seals runs at a fixed threshold regardless of budget —
	// every spillable operator exercises the disk path. Meant for tests
	// and for bounding memory tightly without tuning a budget.
	Always
)

// String renders the policy the way ParsePolicy accepts it.
func (p Policy) String() string {
	switch p {
	case Default:
		return "default"
	case Off:
		return "off"
	case OnPressure:
		return "on-pressure"
	case Always:
		return "always"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy parses a policy name: "off", "on-pressure" (or "on"),
// "always", and "" or "default" for Default.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "default":
		return Default, nil
	case "off":
		return Off, nil
	case "on-pressure", "on_pressure", "pressure", "on":
		return OnPressure, nil
	case "always":
		return Always, nil
	}
	return Off, fmt.Errorf("spill: unknown policy %q (want off, on-pressure, or always)", s)
}

// ErrBudget is returned by the Add and AddBatch of Sorter and Buffer when
// the memory budget is exhausted and spilling cannot free anything (policy
// Off, or a budget too small to hold a single sealed run's worth of state
// while other operators hold the rest). The engine wraps it in its own
// out-of-memory error naming the worker and operator.
var ErrBudget = errors.New("spill: memory budget exhausted")

// ErrDiskBudget is returned when sealing a run would push the run's
// spilled bytes past the hard disk cap — the backstop that keeps a
// pathological query from filling the disk the way it used to fill RAM.
var ErrDiskBudget = errors.New("spill: disk budget exceeded")

// Event describes one seal for the engine's OnSpill hook: the label of
// the spilling operator, the tuples and bytes written, and the time the
// seal took (sorting included, for sorted runs).
type Event struct {
	Label  string
	Tuples int64
	Bytes  int64
	Dur    time.Duration
}

// Config wires a Sorter or Buffer into its run.
type Config struct {
	// Acct is the run's accountant; required.
	Acct *Accountant
	// Worker is the worker whose budget the tuples charge against.
	Worker int
	// Arity is the tuple width; every Add and AddBatch must match it.
	Arity int
	// Create returns the run's spill directory, whose file every seal
	// appends an extent to (normally Dir.Create, which creates the file
	// on first use). Nil means the run never seals, whatever the policy:
	// budget pressure is then ErrBudget.
	Create func() (*Dir, error)
	// Policy is the resolved spill policy: Off, OnPressure, or Always
	// (Default is resolved by the engine before it gets here).
	Policy Policy
	// SealTuples is the run size at which policy Always seals; 0 takes
	// DefaultSealTuples. OnPressure ignores it (the budget decides).
	SealTuples int
	// Label names the operator in events and errors.
	Label string
	// OnSpill, when set, observes every seal (the engine turns these
	// into trace events and per-run counters).
	OnSpill func(Event)
}

// DefaultSealTuples is the run size at which policy Always seals.
const DefaultSealTuples = 1 << 15

func (c Config) sealTuples() int {
	if c.SealTuples > 0 {
		return c.SealTuples
	}
	return DefaultSealTuples
}
