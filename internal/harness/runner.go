// Package harness runs the paper's experiments: it wires workloads,
// machines and policies together, executes simulations (in parallel for
// sweeps), and renders the tables and figure data of the evaluation
// section (§IV).
package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"dike/internal/core"
	"dike/internal/fault"
	"dike/internal/machine"
	"dike/internal/metrics"
	"dike/internal/platform"
	"dike/internal/power"
	"dike/internal/replay"
	"dike/internal/sched"
	"dike/internal/sim"
	"dike/internal/tournament"
	"dike/internal/traffic"
	"dike/internal/workload"
)

// Policy names accepted by RunSpec.Policy.
const (
	PolicyCFS    = "cfs"
	PolicyDIO    = "dio"
	PolicyDike   = "dike"
	PolicyDikeAF = "dike-af"
	PolicyDikeAP = "dike-ap"
	// PolicyDikeEA is the energy-aware Dike variant: it adapts like
	// dike-af while the schedule is unfair, but its adaptation guard
	// scores fairness × measured watts, and on an already-fair schedule
	// it lengthens the quantum to cut decision (and actuation) overhead.
	PolicyDikeEA = "dike-ea"
	PolicyNull   = "null"
	// PolicyRotate and PolicyOracle are reference schedulers beyond the
	// paper's comparison set: trivial round-robin rotation (perfectly
	// fair, migration-heavy) and an offline-knowledge static placement
	// (the HASS family from related work).
	PolicyRotate = "rotate"
	PolicyOracle = "oracle"
	// PolicyMeta is the competitive meta-scheduler: it runs one
	// candidate policy live, audits the whole candidate set in shadow
	// tournaments every epoch and switches to the winner. See
	// internal/tournament and RunSpec.Meta.
	PolicyMeta = "meta"
)

// ComparisonPolicies are the four schedulers of Fig 6 / Table III, in
// presentation order.
var ComparisonPolicies = []string{PolicyDIO, PolicyDike, PolicyDikeAF, PolicyDikeAP}

// RunSpec describes one simulation run.
type RunSpec struct {
	// Workload to execute. Exactly one of Workload and Traffic is
	// required.
	Workload *workload.Workload
	// Traffic, when set, runs an open-loop multi-tenant scenario instead
	// of a closed-loop workload: the spec's arrival processes spawn
	// short-lived request threads, admission control gates them, and the
	// run's result carries sojourn percentiles, SLO violations and
	// per-tenant fairness (RunOutput.Traffic). Scale is ignored — demand
	// is per-request — and the default horizon stretches to cover the
	// arrival window plus drain.
	Traffic *traffic.Spec
	// Policy is one of the Policy* names (required).
	Policy string
	// DikeConfig overrides the Dike configuration; only consulted for
	// the dike policies. Goal is forced to match the policy name.
	DikeConfig *core.Config
	// Meta overrides the tournament configuration; only consulted for
	// the meta policy. Nil means tournament.DefaultConfig with the
	// DefaultMetaCandidates set.
	Meta *tournament.Config
	// MachineConfig overrides machine.DefaultConfig.
	MachineConfig *machine.Config
	// Seed controls workload noise and the shared initial placement.
	// Runs compared against each other must use the same seed.
	Seed uint64
	// Scale multiplies benchmark work (0 = 1). Sweeps use < 1 to trade
	// run length for coverage.
	Scale float64
	// Step is the simulation tick (0 = 1 ms).
	Step sim.Time
	// MaxTime overrides the simulation horizon (0 = engine default).
	MaxTime sim.Time
	// TraceEvery, if positive, samples a RunTrace at that period (ms).
	// Traffic runs capture the machine-level series only: the progress
	// dispersion series needs a fixed benchmark set, so it is nil for
	// open-loop runs.
	TraceEvery sim.Time
	// Faults, if non-nil, attaches a fault injector to the machine with
	// this configuration. The injector is deterministic in its seed, so
	// two runs with identical specs see the identical fault schedule.
	Faults *fault.Config
	// Power, if non-nil with a non-empty Governor, interposes a power
	// governor between the policy and the platform: every AdaptEvery
	// scheduling decisions the governor reads the energy meter and may
	// throttle DVFS levels. Governor configuration is part of the run's
	// content address (Digest), and every actuation rides the replay log.
	Power *power.Config
	// Record, if non-nil, receives a replay log of the run: every
	// counter sample, quantum boundary and affinity action the policy
	// exchanged with the platform. Feed it to Replay to re-run the
	// policy's decisions without the machine model.
	Record io.Writer
	// OnProgress, if non-nil, is invoked after every scheduling decision
	// with a snapshot of the run. It runs on the simulation goroutine, so
	// it must be fast and must not block; the serve layer uses it to feed
	// live NDJSON event streams. Observers never affect the simulation,
	// so this field is excluded from Digest.
	OnProgress func(Progress)
}

// Progress is the per-quantum snapshot handed to RunSpec.OnProgress.
type Progress struct {
	// Time is the simulated time of the scheduling decision, ms.
	Time sim.Time
	// Quantum counts decisions so far, starting at 1.
	Quantum int
	// Alive is the number of arrived, unfinished threads.
	Alive int
	// Swaps is the cumulative migration-pair count.
	Swaps int
	// Utilization is the memory-controller utilisation (0..MaxUtil).
	Utilization float64
}

// Spec validation errors. Run wraps these with the offending detail;
// match with errors.Is.
var (
	// ErrNoWorkload reports a spec without a workload or traffic scenario.
	ErrNoWorkload = errors.New("harness: spec has no workload")
	// ErrUnknownPolicy reports a policy name outside the Policy* set.
	ErrUnknownPolicy = errors.New("harness: unknown policy")
	// ErrAmbiguousSource reports a spec with both a workload and a
	// traffic scenario — the run would have two thread sources.
	ErrAmbiguousSource = errors.New("harness: spec has both workload and traffic")
)

// Validate reports the first problem with the spec, or nil. Run calls
// it; sweep builders call it early to fail before spawning workers.
func (s RunSpec) Validate() error {
	if s.Workload == nil && s.Traffic == nil {
		return fmt.Errorf("%w (policy %q)", ErrNoWorkload, s.Policy)
	}
	if s.Workload != nil && s.Traffic != nil {
		return fmt.Errorf("%w (policy %q)", ErrAmbiguousSource, s.Policy)
	}
	if _, err := s.policyConfig(); err != nil {
		return err
	}
	if s.Power != nil {
		if err := s.Power.Validate(); err != nil {
			return err
		}
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return err
		}
	}
	if s.MachineConfig != nil {
		if err := s.MachineConfig.Validate(); err != nil {
			return err
		}
	}
	if s.Traffic != nil {
		return s.Traffic.Validate()
	}
	return nil
}

// sourceName labels the run's thread source in error messages: the
// workload name for closed-loop runs, the traffic scenario label for
// open-loop ones. Validate guarantees exactly one is set.
func (s RunSpec) sourceName() string {
	if s.Workload != nil {
		return s.Workload.Name
	}
	return "traffic:" + s.Traffic.Label()
}

// policyConfig resolves the spec's policy configuration as Run records
// it and Digest hashes it: a core.Config for the dike variants, a
// tournament.Config for meta, nil for the other policies.
func (s RunSpec) policyConfig() (any, error) {
	e, ok := lookupPolicy(s.Policy)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownPolicy, s.Policy)
	}
	if e.config == nil {
		return nil, nil
	}
	return e.config(s)
}

// governor returns the spec's resolved governor configuration, or nil
// when the run is ungoverned: a nil config and an empty governor name
// both mean ungoverned.
func (s RunSpec) governor() *power.Config {
	if s.Power == nil || s.Power.Governor == "" {
		return nil
	}
	cfg := s.Power.WithDefaults()
	return &cfg
}

// PolicyStats is the policy-side bookkeeping a run reports and a replay
// of its recording reproduces, field for field.
type PolicyStats struct {
	// PredMin/PredAvg/PredMax are Fig 7's per-thread averaged prediction
	// error extremes; zero for non-Dike policies.
	PredMin, PredAvg, PredMax float64
	// ErrSeries is Fig 8's per-quantum mean error series (Dike only).
	ErrSeries []core.ErrPoint
	// History is Dike's per-quantum decision log (Dike only).
	History []core.QuantumRecord
	// WatchdogTrips / FailedSwaps / Sanitized report Dike's degradation
	// bookkeeping: last-known-good reverts, swaps that silently failed
	// and were rolled back, and counter readings dropped/rejected/clamped
	// by the Observer. Zero for non-Dike policies.
	WatchdogTrips int
	FailedSwaps   int
	Sanitized     core.SanitizeStats
	// MetaStats carries the meta policy's tournament record — epochs,
	// scores, switches. Nil for fixed-policy runs.
	MetaStats *tournament.Stats
	// Power carries the governor's invocation log — one entry per
	// adaptation with the watts it saw and the DVFS levels it set. Nil
	// for ungoverned runs.
	Power *power.Stats
}

// RunOutput bundles a finished run's metrics and, for Dike, meta and
// governed runs, the policy bookkeeping the figure harnesses need.
type RunOutput struct {
	Spec   RunSpec
	Result *metrics.RunResult
	PolicyStats
	// CompletedAt is the simulated completion time.
	CompletedAt sim.Time
	// DecisionTime is the cumulative wall-clock time spent inside the
	// policy's Quantum calls, and Decisions how many were taken.
	DecisionTime time.Duration
	Decisions    int
	// Trace holds the sampled time series when RunSpec.TraceEvery > 0.
	Trace *RunTrace
	// FaultStats counts the faults actually injected (nil without Faults).
	FaultStats *fault.Stats
	// Traffic carries the open-loop scenario result — per-class sojourn
	// percentiles, SLO violations, admission counts and per-tenant
	// fairness. Nil for closed-loop runs. Result is synthesized from it
	// (one bench per tenant class) so every downstream consumer of
	// RunResult keeps working.
	Traffic *traffic.Result
	// EnergyJ is the machine's total energy over the run in joules,
	// integrated per tick from the power model; EDP is the
	// energy-delay product EnergyJ × makespan-seconds (J·s), the
	// energy experiment's headline metric. Both are zero on replay,
	// where no machine model runs.
	EnergyJ float64
	EDP     float64
}

// Run executes one simulation to completion. Cancelling ctx aborts the
// simulation within one quantum; the returned error then wraps
// ctx.Err(). Batch callers pass context.Background().
func Run(ctx context.Context, spec RunSpec) (*RunOutput, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	mcfg := machine.DefaultConfig()
	if spec.MachineConfig != nil {
		mcfg = *spec.MachineConfig
	}
	m, err := machine.New(mcfg)
	if err != nil {
		return nil, err
	}
	var inst *workload.Instance
	var tr *traffic.Run
	if spec.Traffic != nil {
		tr, err = traffic.Build(m, *spec.Traffic, spec.Seed)
	} else {
		inst, err = spec.Workload.Build(m, workload.BuildOptions{Seed: spec.Seed, Scale: spec.Scale})
	}
	if err != nil {
		return nil, err
	}
	var inj *fault.Injector
	if spec.Faults != nil {
		inj, err = fault.NewInjector(*spec.Faults)
		if err != nil {
			return nil, err
		}
		m.SetDisruptor(inj)
	}

	// The policy talks to the platform seam, never to the machine; when
	// recording, a Recorder interposes so every interaction is logged.
	var plat platform.Platform = m
	var rec *replay.Recorder
	if spec.Record != nil {
		rec = replay.NewRecorder(m, spec.Record)
		plat = rec
	}
	// Resolve the header first, then build from it exactly as Replay
	// does. The governor is wrapped before the recorder's policy wrapper,
	// so a governed log reads in causal order: quantum boundary, policy
	// calls, then governor calls.
	meta, err := spec.resolve(plat, m, inst, tr)
	if err != nil {
		return nil, err
	}
	policy, err := build(plat, meta)
	if err != nil {
		return nil, err
	}
	run := policy
	if rec != nil {
		if err := rec.Start(meta); err != nil {
			return nil, err
		}
		run = rec.WrapPolicy(policy)
	}

	ecfg := sim.DefaultConfig()
	if spec.Step > 0 {
		ecfg.Step = spec.Step
	}
	if spec.MaxTime > 0 {
		ecfg.MaxTime = spec.MaxTime
	} else if tr != nil {
		// Open-loop runs must outlast the arrival window plus drain; the
		// closed-loop default horizon may be shorter than the window
		// itself, so stretch it deterministically from the spec.
		if h := sim.Time(spec.Traffic.HorizonMs) * 10; h > ecfg.MaxTime {
			ecfg.MaxTime = h
		}
	}
	engine, err := sim.NewEngine(m, run, ecfg)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		// The traffic accountant ticks with the engine: departures are
		// retired and due arrivals admitted (or rejected) before the new
		// thread's first tick of execution.
		engine.OnTick(tr.Tick)
	}
	var rt *RunTrace
	if spec.TraceEvery > 0 {
		rt = attachTrace(engine, m, inst, spec.TraceEvery, inj)
	}
	if spec.OnProgress != nil {
		quantum := 0
		engine.OnQuantum(func(now sim.Time) {
			quantum++
			spec.OnProgress(Progress{
				Time:        now,
				Quantum:     quantum,
				Alive:       m.AliveCount(),
				Swaps:       m.SwapCount(),
				Utilization: m.Utilization(),
			})
		})
	}
	done, err := engine.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("harness: %s on %s: %w", spec.Policy, spec.sourceName(), err)
	}
	if rec != nil {
		if err := rec.Flush(); err != nil {
			return nil, err
		}
	}

	var result *metrics.RunResult
	var tres *traffic.Result
	if tr != nil {
		tres = tr.Finalize(done)
		result = trafficRunResult(spec.Policy, tres, m)
	} else {
		result, err = metrics.Collect(m, inst, spec.Policy)
		if err != nil {
			return nil, err
		}
	}
	out := &RunOutput{Spec: spec, Result: result, PolicyStats: policyStats(policy), CompletedAt: done, Trace: rt, Traffic: tres}
	out.DecisionTime, out.Decisions = engine.DecisionCost()
	out.EnergyJ = m.EnergyJoules()
	out.EDP = out.EnergyJ * float64(done) / 1000
	if inj != nil {
		st := inj.Stats()
		out.FaultStats = &st
	}
	return out, nil
}

// resolve turns the spec into the replay header its policy is built
// from, which is also the header a recording of the run carries: the
// resolved policy configuration, the oracle's static assignment
// (computed over plat from workload or traffic ground truth, which a
// replay cannot see) and the governor setup with m's DVFS levels.
func (s RunSpec) resolve(plat platform.Platform, m *machine.Machine, inst *workload.Instance, tr *traffic.Run) (replay.Meta, error) {
	meta := replay.Meta{Policy: s.Policy, Seed: s.Seed}
	cfg, err := s.policyConfig()
	if err != nil {
		return meta, err
	}
	if cfg != nil {
		if meta.PolicyConfig, err = json.Marshal(cfg); err != nil {
			return meta, err
		}
	}
	if s.Policy == PolicyOracle {
		intensity := make(map[platform.ThreadID]float64)
		if tr != nil {
			for id, x := range tr.Intensity() {
				intensity[platform.ThreadID(id)] = x
			}
		} else {
			for _, ti := range inst.Threads {
				intensity[ti.ID] = s.Workload.Benchmarks[ti.Bench].Profile.MeanMissesPerWork()
			}
		}
		meta.Static = sched.OracleAssignment(plat, intensity)
	}
	if pcfg := s.governor(); pcfg != nil {
		if meta.Power, err = json.Marshal(power.Setup{Config: *pcfg, Levels: m.KindDVFSLevels()}); err != nil {
			return meta, err
		}
	}
	return meta, nil
}

// trafficRunResult synthesizes a metrics.RunResult from an open-loop
// scenario result: one bench per tenant class with sojourn statistics in
// the completion-time fields, and the per-tenant Jain index as Fairness.
// Downstream consumers (the serve API, report tables) read RunResult
// uniformly for both run kinds.
func trafficRunResult(policy string, tres *traffic.Result, m *machine.Machine) *metrics.RunResult {
	res := &metrics.RunResult{
		Policy:     policy,
		Workload:   "traffic:" + tres.Name,
		Type:       workload.Balanced,
		Fairness:   tres.FairnessJain,
		Makespan:   float64(tres.DrainedAtMs),
		Swaps:      m.SwapCount(),
		Migrations: m.MigrationCount(),
	}
	sum, n := 0.0, 0
	for _, c := range tres.Classes {
		cv := 0.0
		if c.MeanMs > 0 {
			// Not a true CV; the p99/mean ratio is the dispersion signal
			// that matters for tail latency.
			cv = c.P99Ms/c.MeanMs - 1
		}
		res.Benches = append(res.Benches, metrics.BenchResult{
			Name: c.Name, Time: c.MaxMs, MeanThreadTime: c.MeanMs, CV: cv,
		})
		if c.Completed > 0 {
			sum += c.MeanMs
			n++
		}
	}
	if n > 0 {
		res.AvgTime = sum / float64(n)
	}
	return res
}

// RunAll executes specs concurrently on up to workers goroutines (each
// simulation is single-threaded and independent). Results align with
// specs by index; the first error aborts nothing but is returned.
// Cancelling ctx aborts every in-flight simulation within one quantum.
func RunAll(ctx context.Context, specs []RunSpec, workers int) ([]*RunOutput, error) {
	if workers < 1 {
		workers = 1
	}
	outs := make([]*RunOutput, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				outs[i], errs[i] = Run(ctx, specs[i])
			}
		}()
	}
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return outs, err
		}
	}
	return outs, nil
}
