package traffic

import (
	"errors"
	"fmt"

	"dike/internal/machine"
	"dike/internal/platform"
	"dike/internal/sim"
)

// Run is an instantiated traffic scenario: the generated arrival stream
// registered on a machine, plus the runtime accounting that turns
// per-request lifecycles into tail-latency and fairness metrics.
//
// Thread ids are dense in merged arrival order and each thread's bench
// id is its class index, so every layer that already understands
// (thread, bench) — the counter file, the replay log, the policies —
// sees tenant classes without modification.
type Run struct {
	spec     Spec
	arrivals []Arrival
	m        *machine.Machine
	maxSpeed float64 // fastest core's nominal speed, work units/ms

	cursor   int                 // next unprocessed arrival (== its ThreadID)
	inflight []platform.ThreadID // admitted, not yet departed
	reaped   int                 // m.FinishedCount() at the last full reap
	inSystem []int               // per class: admitted, unfinished
	agg      []classAgg
}

// classAgg accumulates one class's lifecycle counts and sojourns.
type classAgg struct {
	admitted  int
	rejected  int
	completed int
	killed    int // admitted but terminated early (injected crash)
	sojourns  []float64
	workDone  float64 // total demand of completed requests
}

// Build generates the spec's arrival stream for seed and registers every
// request as a machine thread: id = position in the merged stream,
// bench = class index, program = the class profile rescaled to the
// request's drawn demand, arrival via SetStart. The machine must be
// fresh. Policies need no special handling — pending threads are
// invisible to Alive() until they arrive, exactly like the closed-loop
// dynamic workloads.
func Build(m *machine.Machine, spec Spec, seed uint64) (*Run, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(m.Threads()) != 0 {
		return nil, errors.New("traffic: machine already has threads")
	}
	arrivals := spec.Generate(seed)
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("traffic: spec %q generated no arrivals (horizon %dms)", spec.Label(), spec.HorizonMs)
	}
	profs, err := classProfiles(spec)
	if err != nil {
		return nil, err
	}
	for i, a := range arrivals {
		prof := profs[a.Class]
		prog := prof.Scale(a.Work / prof.TotalWork()).Instantiate(a.Seed)
		id := platform.ThreadID(i)
		if err := m.AddThread(id, a.Class, prog); err != nil {
			return nil, err
		}
		if err := m.SetStart(id, a.At); err != nil {
			return nil, err
		}
	}
	maxSpeed := 0.0
	for _, c := range m.Topology().Cores() {
		if c.Speed > maxSpeed {
			maxSpeed = c.Speed
		}
	}
	return &Run{
		spec:     spec,
		arrivals: arrivals,
		m:        m,
		maxSpeed: maxSpeed,
		inSystem: make([]int, len(spec.Classes)),
		agg:      make([]classAgg, len(spec.Classes)),
	}, nil
}

// Intensity returns the ground-truth mean memory intensity (misses per
// work unit) per thread — what an offline profiler would report. The
// oracle policy consumes it in place of workload ground truth.
func (r *Run) Intensity() map[platform.ThreadID]float64 {
	perClass := make([]float64, len(r.spec.Classes))
	if profs, err := classProfiles(r.spec); err == nil {
		for ci, p := range profs {
			perClass[ci] = p.MeanMissesPerWork()
		}
	}
	out := make(map[platform.ThreadID]float64, len(r.arrivals))
	for i, a := range r.arrivals {
		out[platform.ThreadID(i)] = perClass[a.Class]
	}
	return out
}

// Tick is the engine OnTick observer: it retires departures and admits
// (or rejects) the arrivals due by now. The engine fires it before any
// newly-arrived thread executes its first tick, so a rejected request
// never runs. Processing departures first lets a slot freed this tick
// be claimed by an arrival in the same tick.
func (r *Run) Tick(now sim.Time) {
	r.reapDepartures()
	for r.cursor < len(r.arrivals) && r.arrivals[r.cursor].At <= now {
		a := r.arrivals[r.cursor]
		id := platform.ThreadID(r.cursor)
		r.cursor++
		c := &r.spec.Classes[a.Class]
		if c.MaxInSystem > 0 && r.inSystem[a.Class] >= c.MaxInSystem {
			// Admission control: the class is at capacity, reject at the
			// door. Terminate keeps the machine's Done() invariant — every
			// registered thread eventually finishes.
			if err := r.m.Terminate(id, a.At); err == nil {
				r.agg[a.Class].rejected++
			}
			continue
		}
		r.agg[a.Class].admitted++
		r.inSystem[a.Class]++
		r.inflight = append(r.inflight, id)
	}
}

// reapDepartures retires inflight requests the machine has finished.
// While no thread has finished since its last full pass there is
// nothing to retire, so it skips the scan.
func (r *Run) reapDepartures() {
	n := r.m.FinishedCount()
	if n == r.reaped {
		return
	}
	r.reaped = n
	for i := len(r.inflight) - 1; i >= 0; i-- {
		id := r.inflight[i]
		ft, done := r.m.Finished(id)
		if !done {
			continue
		}
		a := r.arrivals[int(id)]
		ag := &r.agg[a.Class]
		if r.m.Progress(id) >= 1-1e-9 {
			ag.completed++
			ag.sojourns = append(ag.sojourns, float64(ft-a.At))
			ag.workDone += a.Work
		} else {
			// Terminated with work left: an injected crash took it down.
			ag.killed++
		}
		r.inSystem[a.Class]--
		r.inflight[i] = r.inflight[len(r.inflight)-1]
		r.inflight = r.inflight[:len(r.inflight)-1]
	}
}

// Finalize closes the books after the engine reports completion and
// returns the scenario result. endAt is the simulated completion time.
func (r *Run) Finalize(endAt sim.Time) *Result {
	r.Tick(endAt) // retire anything the last tick finished
	return r.result(endAt)
}
