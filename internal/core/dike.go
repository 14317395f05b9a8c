package core

import (
	"math"
	"sort"

	"dike/internal/platform"
	"dike/internal/sched"
	"dike/internal/sim"
	"dike/internal/stats"
)

// Dike is the paper's scheduler as a simulation policy. Construct with
// New, then hand to the simulation engine; it observes the platform's
// performance counters each quantum and re-maps threads to cores through
// affinity swaps.
type Dike struct {
	p   platform.Platform
	cfg Config

	obs *Observer
	prd Predictor
	dec *Decider
	mig *Migrator
	opt *Optimizer

	swapSize int
	quanta   sim.Time

	placed     bool
	quantumIdx int

	// Prediction bookkeeping, double-buffered: predIDs/predRates are
	// what the predictor expected each alive thread's access rate to be
	// this quantum (set at the end of the previous quantum, ascending
	// id), and nextIDs/nextRates the expectations the current quantum
	// builds before the two pairs of buffers swap. errs accumulates
	// per-thread error statistics, sorted by thread id; preds is the
	// per-quantum prediction buffer.
	predIDs, nextIDs     []platform.ThreadID
	predRates, nextRates []float64
	errs                 []threadErr
	preds                []Prediction
	series               []ErrPoint

	history []QuantumRecord

	// Watchdog state: fairness-collapse detection with revert to the
	// last-known-good ⟨swapSize, quantaLength⟩ pair.
	wdPrev    float64
	wdHave    bool
	wdBad     int
	lkgSwap   int
	lkgQuanta sim.Time
	wdTrips   int

	// Fairness-gate feed for the power subsystem: the core kind hosting
	// the slowest thread while the gate is open (see LimitingKind).
	limKind platform.CoreKind
	limOK   bool
}

// Watchdog tuning: the gate value must grow by more than watchdogEps
// relative to the previous quantum for watchdogK consecutive quanta
// (all above the fairness threshold) before the watchdog declares a
// fairness collapse and reverts the scheduling parameters.
const (
	watchdogK   = 5
	watchdogEps = 0.02
)

// ErrPoint is one quantum's mean prediction error (Fig 8's series).
type ErrPoint struct {
	Time sim.Time
	// Mean is the mean signed relative error across threads observed
	// this quantum; positive = overestimation.
	Mean float64
}

// QuantumRecord captures one scheduling decision for traces and tests.
type QuantumRecord struct {
	Time       sim.Time
	Fairness   float64 // gate value (mean per-process access-rate CV)
	SwapSize   int
	Quanta     sim.Time
	Candidates int // pairs proposed by the Selector
	Accepted   int // pairs surviving the Decider
	MemThreads int
	Alive      int
	// Held counts threads whose counter reading was dropped or rejected
	// this quantum and whose rate is the held last-good value.
	Held int
}

// threadErr is one thread's accumulated prediction error.
type threadErr struct {
	id  platform.ThreadID
	sum float64
	n   int
}

func (e threadErr) key() int { return int(e.id) }

// errFloor and errClamp bound the per-quantum relative prediction error:
// rates below errFloor (misses/ms) are too small for a meaningful
// relative comparison, and single-quantum errors are clamped so one
// burst cannot dominate a thread's run average.
const (
	errFloor = 0.2
	errClamp = 1.5
)

// New builds a Dike policy over platform p with cfg (zero-value fields take
// defaults from DefaultConfig).
func New(p platform.Platform, cfg Config) (*Dike, error) {
	def := DefaultConfig()
	if cfg.QuantaLength == 0 {
		cfg.QuantaLength = def.QuantaLength
	}
	if cfg.SwapSize == 0 {
		cfg.SwapSize = def.SwapSize
	}
	if cfg.FairnessThreshold == 0 {
		cfg.FairnessThreshold = def.FairnessThreshold
	}
	if cfg.MissRatioThreshold == 0 {
		cfg.MissRatioThreshold = def.MissRatioThreshold
	}
	if cfg.CoreBWAlpha == 0 {
		cfg.CoreBWAlpha = def.CoreBWAlpha
	}
	if cfg.SwapOH == 0 {
		cfg.SwapOH = def.SwapOH
	}
	if cfg.AdaptEvery == 0 {
		cfg.AdaptEvery = def.AdaptEvery
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Dike{
		p:        p,
		cfg:      cfg,
		obs:      newObserver(p, cfg.CoreBWAlpha, cfg.MissRatioThreshold, cfg.UseIPCMetric),
		prd:      Predictor{SwapOH: cfg.SwapOH},
		dec:      NewDecider(),
		mig:      NewMigrator(p),
		swapSize: cfg.SwapSize,
		quanta:   cfg.QuantaLength,
	}
	d.dec.DisableProfitGate = cfg.DisableProfitGate
	d.dec.DisableCooldown = cfg.DisableCooldown
	if cfg.Goal != AdaptNone {
		d.opt = NewOptimizer(cfg.Goal, cfg.SwapSize, cfg.QuantaLength, true)
	}
	// The validated starting configuration is the first last-known-good.
	d.lkgSwap, d.lkgQuanta = cfg.SwapSize, cfg.QuantaLength
	return d, nil
}

// Name implements sim.Policy: "dike", "dike-af", "dike-ap" or
// "dike-ea".
func (d *Dike) Name() string {
	switch d.cfg.Goal {
	case AdaptFairness:
		return "dike-af"
	case AdaptPerformance:
		return "dike-ap"
	case AdaptEnergy:
		return "dike-ea"
	default:
		return "dike"
	}
}

// QuantaLength implements sim.Policy; adaptive modes change it as the
// Optimizer retunes.
func (d *Dike) QuantaLength() sim.Time { return d.quanta }

// History returns the per-quantum decision records.
func (d *Dike) History() []QuantumRecord { return d.history }

// WatchdogTrips returns how many times the fairness watchdog reverted
// the scheduler's parameters to the last-known-good pair.
func (d *Dike) WatchdogTrips() int { return d.wdTrips }

// FailedSwaps returns how many accepted swaps did not take effect on
// the platform (silently dropped migrations, detected and rolled back).
func (d *Dike) FailedSwaps() int { return d.mig.FailedSwaps() }

// SanitizedTotal returns the run totals of counter readings the
// Observer dropped, rejected or clamped.
func (d *Dike) SanitizedTotal() SanitizeStats { return d.obs.SanitizedTotal() }

// Quantum implements sim.Policy: one pass of the Figure 3 pipeline.
func (d *Dike) Quantum(now sim.Time) error {
	if !d.placed {
		if err := sched.SpreadPlacement(d.p, d.cfg.PlacementSeed); err != nil {
			return err
		}
		d.placed = true
		// Establish the counter baseline; no decisions yet.
		_, err := d.obs.Observe(now)
		return err
	}

	obs, err := d.obs.Observe(now)
	if err != nil {
		return err
	}
	if obs.Sample.Interval <= 0 || len(obs.Alive) == 0 {
		return nil
	}
	d.quantumIdx++
	d.recordErrors(obs)
	d.watchdog(obs)

	d.updateLimiting(obs)

	// Adaptation (Optimizer), every AdaptEvery quanta.
	if d.opt != nil && d.quantumIdx%d.cfg.AdaptEvery == 0 {
		goal := obs.Fairness
		switch d.cfg.Goal {
		case AdaptPerformance:
			goal = d.instructionRate(obs)
		case AdaptEnergy:
			goal = d.energyMetric(obs)
		}
		d.opt.Step(obs, obs.Fairness, d.cfg.FairnessThreshold, goal)
		d.swapSize, d.quanta = d.opt.Params()
	}

	rec := QuantumRecord{
		Time:       now,
		Fairness:   obs.Fairness,
		SwapSize:   d.swapSize,
		Quanta:     d.quanta,
		MemThreads: obs.MemoryThreads(),
		Alive:      len(obs.Alive),
		Held:       obs.HeldThreads(),
	}

	// Default prediction: threads that stay put keep their access rate.
	d.nextIDs = append(d.nextIDs[:0], obs.Alive...)
	d.nextRates = append(d.nextRates[:0], obs.Rate...)

	// Fairness gate: act only when the system is unfair.
	if obs.Fairness >= d.cfg.FairnessThreshold {
		pairs := SelectPairs(obs, d.swapSize)
		if d.cfg.DisableEqualization {
			kept := pairs[:0]
			for _, p := range pairs {
				if !p.Equalize {
					kept = append(kept, p)
				}
			}
			pairs = kept
		}
		rec.Candidates = len(pairs)
		d.preds = d.preds[:0]
		for _, p := range pairs {
			d.preds = append(d.preds, d.prd.Predict(obs, p, d.quanta))
		}
		d.dec.SetQuanta(d.quanta)
		accepted := d.dec.Filter(d.preds, d.quantumIdx)
		rec.Accepted = len(accepted)
		if _, err := d.mig.Apply(accepted, d.dec, d.quantumIdx, now); err != nil {
			return err
		}
		// Swapped threads are predicted to take over their destination
		// core's bandwidth (Eqn 1's model).
		for _, p := range accepted {
			d.nextRates[obs.Index(p.Pair.Low)] = p.PredLowRate
			d.nextRates[obs.Index(p.Pair.High)] = p.PredHighRate
		}
	}
	d.predIDs, d.nextIDs = d.nextIDs, d.predIDs
	d.predRates, d.nextRates = d.nextRates, d.predRates
	d.history = append(d.history, rec)
	return nil
}

// watchdog tracks the fairness gate across quanta. While the system is
// fair it records the current parameters as last-known-good; when the
// gate diverges — grows by more than watchdogEps per quantum for
// watchdogK consecutive quanta — it reverts ⟨swapSize, quantaLength⟩ to
// the recorded pair. Adaptive retuning gone wrong (or faults corrupting
// the adaptation inputs) is thereby bounded: the scheduler falls back
// to a configuration that demonstrably kept the system fair.
func (d *Dike) watchdog(obs *Observation) {
	if obs.Fairness < d.cfg.FairnessThreshold {
		// Healthy. Remember what got us here.
		d.lkgSwap, d.lkgQuanta = d.swapSize, d.quanta
		d.wdBad = 0
		d.wdHave = false
		return
	}
	if d.wdHave && obs.Fairness > d.wdPrev*(1+watchdogEps) {
		d.wdBad++
	} else {
		d.wdBad = 0
	}
	d.wdPrev = obs.Fairness
	d.wdHave = true
	if d.wdBad < watchdogK {
		return
	}
	// Fairness collapse: revert to the last-known-good parameters.
	d.wdTrips++
	d.wdBad = 0
	d.wdHave = false
	if d.opt != nil {
		d.opt.ForceParams(d.lkgSwap, d.lkgQuanta)
		d.swapSize, d.quanta = d.opt.Params()
	} else {
		d.swapSize, d.quanta = d.lkgSwap, d.lkgQuanta
	}
}

// recordErrors folds this quantum's measured rates against the previous
// quantum's predictions. Threads whose reading was dropped or rejected
// this quantum (obs.Held) are skipped: their Rate is a held estimate,
// not a measurement, and scoring the predictor against it — or letting
// it learn from it — would poison the accuracy statistics with garbage.
func (d *Dike) recordErrors(obs *Observation) {
	if len(d.predIDs) == 0 {
		return
	}
	sum, n := 0.0, 0
	// Both obs.Alive and predIDs ascend, so one merge walk pairs each
	// thread with its prediction, and errs is searched from where the
	// previous thread was found.
	j, from := 0, 0
	for i, id := range obs.Alive {
		for j < len(d.predIDs) && d.predIDs[j] < id {
			j++
		}
		if j == len(d.predIDs) {
			break
		}
		if d.predIDs[j] != id || obs.Held[i] {
			continue
		}
		pred := d.predRates[j]
		actual := obs.Rate[i]
		denom := math.Max(actual, errFloor)
		err := stats.Clamp((pred-actual)/denom, -errClamp, errClamp)
		var e *threadErr
		e, from = entry(&d.errs, from, threadErr{id: id})
		e.sum += err
		e.n++
		sum += err
		n++
	}
	if n > 0 {
		d.series = append(d.series, ErrPoint{Time: obs.Now, Mean: sum / float64(n)})
	}
}

// updateLimiting refreshes the fairness-gate feed: while the gate is
// open (system unfair), the limiting kind is the type of the core
// hosting the slowest thread — the thread whose measured access rate is
// the smallest fraction of its process's intrinsic demand. Boosting
// that kind's frequency is the power budget's highest-leverage spend.
// Ties break to the lowest thread id (obs.Alive is ascending).
func (d *Dike) updateLimiting(obs *Observation) {
	d.limOK = false
	if obs.Fairness < d.cfg.FairnessThreshold {
		return
	}
	best := -1
	bestSlow := 0.0
	for i, base := range obs.Baseline {
		if base <= 0 || obs.Held[i] {
			continue
		}
		slow := obs.Rate[i] / base
		if best < 0 || slow < bestSlow {
			best, bestSlow = i, slow
		}
	}
	if best < 0 {
		return
	}
	d.limKind = d.p.Topology().Core(obs.CoreOf[best]).Kind
	d.limOK = true
}

// LimitingKind implements the power subsystem's fairness feed: the core
// kind currently limiting the slowest thread, valid only while the
// fairness gate is open. The feed is recomputed from observations, not
// recorded — a replayed Dike derives the identical sequence.
func (d *Dike) LimitingKind() (platform.CoreKind, bool) { return d.limKind, d.limOK }

// energyMetric is the Optimizer's energy goal metric: the fairness gate
// value weighted by the platform's power draw (both lower-better).
// Platforms without an energy meter degrade to plain fairness.
func (d *Dike) energyMetric(obs *Observation) float64 {
	if pc, ok := d.p.(platform.PowerControl); ok {
		if w := pc.PowerSample().Total(); w > 0 {
			return obs.Fairness * w
		}
	}
	return obs.Fairness
}

// instructionRate is the Optimizer's performance goal metric: aggregate
// retired instructions per ms this quantum.
func (d *Dike) instructionRate(obs *Observation) float64 {
	if obs.Sample.Interval <= 0 {
		return 0
	}
	total := 0.0
	for _, id := range obs.Alive {
		// Instructions are PMU-visible; work units are not.
		total += obs.Sample.Threads[id].Instructions
	}
	return total / obs.Sample.Interval
}

// PredStats summarises prediction accuracy over a run.
type PredStats struct {
	// PerThread is each thread's run-averaged signed relative error.
	PerThread map[platform.ThreadID]float64
}

// MinAvgMax returns the minimum, mean and maximum of the per-thread
// averaged errors (Fig 7's three series). Zeroes if no data. Values are
// folded in ascending thread-id order: float summation is not
// associative, so map-iteration order would make the mean's last bit
// nondeterministic — which record/replay verification compares.
func (ps PredStats) MinAvgMax() (lo, avg, hi float64) {
	if len(ps.PerThread) == 0 {
		return 0, 0, 0
	}
	ids := make([]platform.ThreadID, 0, len(ps.PerThread))
	for id := range ps.PerThread {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	vals := make([]float64, len(ids))
	for i, id := range ids {
		vals[i] = ps.PerThread[id]
	}
	lo, _ = stats.Min(vals)
	hi, _ = stats.Max(vals)
	return lo, stats.Mean(vals), hi
}

// PredictionStats returns the per-thread averaged prediction errors
// accumulated so far.
func (d *Dike) PredictionStats() PredStats {
	out := PredStats{PerThread: make(map[platform.ThreadID]float64, len(d.errs))}
	for _, e := range d.errs {
		out.PerThread[e.id] = e.sum / float64(e.n)
	}
	return out
}

// ErrorSeries returns the per-quantum mean prediction error time series.
func (d *Dike) ErrorSeries() []ErrPoint { return d.series }
