package sim

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// World is the physical system being simulated. The machine model
// implements it: Step advances thread execution, memory contention and
// counters by dt; Done reports whether every thread has finished its work.
type World interface {
	// Step advances the world from now to now+dt.
	Step(now Time, dt Time)
	// Done reports whether all work in the world has completed.
	Done() bool
}

// Policy is a scheduling policy driven at quantum granularity. At every
// quantum boundary the engine calls Quantum, and then asks QuantaLength
// for the distance to the next boundary — which lets adaptive policies
// (Dike-AF/AP) retune their own quantum on the fly, exactly as the
// paper's Optimizer does.
type Policy interface {
	// Name identifies the policy in traces and reports.
	Name() string
	// Quantum runs one scheduling decision at simulated time now. A
	// returned error aborts the run; policies are expected to absorb
	// recoverable input problems (bad counter readings, failed swaps)
	// themselves and return errors only for genuinely broken state.
	Quantum(now Time) error
	// QuantaLength returns the current time between scheduling decisions.
	QuantaLength() Time
}

// LiveCounter is optionally implemented by Worlds that can report how
// many threads are still live; the engine uses it to enrich horizon
// errors.
type LiveCounter interface {
	AliveCount() int
}

// Idler is optionally implemented by Worlds whose runnable set can
// momentarily drain — open-loop workloads where every arrived thread has
// finished but more arrivals are scheduled. IdleUntil reports whether
// the world is idle at now and, if so, the earliest future time at which
// it can make progress again (the next arrival). The engine then
// fast-forwards to that instant in one step instead of grinding through
// empty ticks — but never past a quantum boundary or the horizon, so
// policy decision streams are identical with and without the skip.
type Idler interface {
	IdleUntil(now Time) (Time, bool)
}

// TickFunc is an observer invoked after every engine tick; the tracer uses
// it to sample time series at fixed resolution.
type TickFunc func(now Time)

// Engine drives a World and a Policy through simulated time.
type Engine struct {
	clock  Clock
	world  World
	policy Policy
	step   Time // tick resolution
	maxT   Time // safety horizon
	ticks  []TickFunc
	quanta []TickFunc

	decisionTime time.Duration // wall-clock time spent inside policy.Quantum
	decisions    int           // number of Quantum calls
}

// Config parameterises an Engine.
type Config struct {
	// Step is the tick resolution in ms. Default 1 ms.
	Step Time
	// MaxTime is the safety horizon; the run errors out if the world has
	// not finished by then. Default 1 hour of simulated time.
	MaxTime Time
}

// DefaultConfig returns the standard engine configuration.
func DefaultConfig() Config {
	return Config{Step: 1, MaxTime: 3_600_000}
}

// ErrHorizon is the sentinel matched by errors.Is when the world fails
// to finish before the configured MaxTime — almost always a sign of a
// livelocked workload or a contention model parameterised so threads
// make no progress. The concrete error is a *HorizonError carrying the
// simulated time and live-thread count at abort.
var ErrHorizon = errors.New("sim: world did not finish before MaxTime")

// HorizonError reports a safety-horizon overrun. It wraps ErrHorizon so
// callers can match it with errors.Is(err, ErrHorizon) and inspect the
// details with errors.As.
type HorizonError struct {
	// Policy is the scheduling policy that was driving the run.
	Policy string
	// T is the simulated time at which the run was aborted.
	T Time
	// Alive is the number of live threads at abort, or -1 when the world
	// cannot report it.
	Alive int
}

// Error implements error.
func (e *HorizonError) Error() string {
	if e.Alive >= 0 {
		return fmt.Sprintf("%v (policy %q, t=%v, %d live threads)", ErrHorizon, e.Policy, e.T, e.Alive)
	}
	return fmt.Sprintf("%v (policy %q, t=%v)", ErrHorizon, e.Policy, e.T)
}

// Unwrap makes errors.Is(err, ErrHorizon) succeed.
func (e *HorizonError) Unwrap() error { return ErrHorizon }

// NewEngine builds an engine over world and policy. A nil policy is
// rejected; use the sched package's Null policy for unscheduled runs.
func NewEngine(world World, policy Policy, cfg Config) (*Engine, error) {
	if world == nil {
		return nil, errors.New("sim: nil world")
	}
	if policy == nil {
		return nil, errors.New("sim: nil policy")
	}
	if cfg.Step <= 0 {
		cfg.Step = 1
	}
	if cfg.MaxTime <= 0 {
		cfg.MaxTime = DefaultConfig().MaxTime
	}
	return &Engine{world: world, policy: policy, step: cfg.Step, maxT: cfg.MaxTime}, nil
}

// OnTick registers fn to run after every tick. Observers run in
// registration order.
func (e *Engine) OnTick(fn TickFunc) {
	if fn != nil {
		e.ticks = append(e.ticks, fn)
	}
}

// OnQuantum registers fn to run after every successful scheduling
// decision, at the decision's simulated time. The serve layer uses it to
// stream per-quantum progress events while a run is in flight.
func (e *Engine) OnQuantum(fn TickFunc) {
	if fn != nil {
		e.quanta = append(e.quanta, fn)
	}
}

// Now returns the engine's current simulated time.
func (e *Engine) Now() Time { return e.clock.Now() }

// DecisionCost returns the cumulative wall-clock time spent inside
// policy.Quantum and the number of decisions taken.
func (e *Engine) DecisionCost() (time.Duration, int) {
	return e.decisionTime, e.decisions
}

// Run executes the simulation until the world is done. It returns the
// completion time, or ErrHorizon if MaxTime elapses first. Cancelling
// ctx aborts the run at the next tick — within one quantum of simulated
// time — and returns ctx.Err(); use context.Background() for
// uncancellable batch runs.
//
// The loop structure mirrors Figure 3 of the paper: time is divided into
// quanta; within a quantum the machine just executes; at each quantum
// boundary the policy observes, predicts, decides and migrates.
func (e *Engine) Run(ctx context.Context) (Time, error) {
	ql := e.policy.QuantaLength()
	if ql <= 0 {
		return 0, fmt.Errorf("sim: policy %q has non-positive quantum", e.policy.Name())
	}
	nextQuantum := Time(0) // fire the first decision at t=0, before any work
	for !e.world.Done() {
		now := e.clock.Now()
		if err := ctx.Err(); err != nil {
			return now, err
		}
		if now >= e.maxT {
			alive := -1
			if lc, ok := e.world.(LiveCounter); ok {
				alive = lc.AliveCount()
			}
			return now, &HorizonError{Policy: e.policy.Name(), T: now, Alive: alive}
		}
		if now >= nextQuantum {
			wallStart := time.Now()
			err := e.policy.Quantum(now)
			e.decisionTime += time.Since(wallStart)
			e.decisions++
			if err != nil {
				return now, fmt.Errorf("sim: policy %q failed at %v: %w", e.policy.Name(), now, err)
			}
			ql = e.policy.QuantaLength()
			if ql <= 0 {
				return now, fmt.Errorf("sim: policy %q set non-positive quantum at %v", e.policy.Name(), now)
			}
			nextQuantum = now + ql
			for _, fn := range e.quanta {
				fn(now)
			}
		}
		// Do not step past the next quantum boundary: decisions must land
		// exactly on their schedule even when quanta are not multiples of
		// the tick.
		dt := e.step
		if now+dt > nextQuantum {
			dt = nextQuantum - now
		}
		// Empty interval: every arrived thread has finished but more are
		// due. Jump straight to the next arrival (capped at the quantum
		// boundary and the horizon) rather than ticking through the gap.
		if idler, ok := e.world.(Idler); ok {
			if wake, idle := idler.IdleUntil(now); idle && wake > now+dt {
				jump := wake
				if jump > nextQuantum {
					jump = nextQuantum
				}
				if jump > e.maxT {
					jump = e.maxT
				}
				if jump > now+dt {
					dt = jump - now
				}
			}
		}
		e.world.Step(now, dt)
		e.clock.advance(dt)
		for _, fn := range e.ticks {
			fn(e.clock.Now())
		}
	}
	return e.clock.Now(), nil
}
