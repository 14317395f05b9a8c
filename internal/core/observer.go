package core

import (
	"cmp"
	"fmt"
	"slices"

	"dike/internal/platform"
	"dike/internal/sim"
	"dike/internal/stats"
)

// ThreadClass is the Observer's online classification of a thread.
type ThreadClass int

const (
	// ComputeClass threads mostly hit in the LLC ("C").
	ComputeClass ThreadClass = iota
	// MemoryClass threads miss to DRAM on more than the configured
	// fraction of LLC accesses ("M").
	MemoryClass
)

// String returns "C" or "M".
func (c ThreadClass) String() string {
	if c == MemoryClass {
		return "M"
	}
	return "C"
}

// Observation is everything one quantum of observing yields: the raw
// counter sample, thread classifications, access rates, the per-core
// bandwidth estimates, and the high/low-bandwidth core partition.
//
// An Observation belongs to the Observer that produced it. The Observer
// rebuilds the same Observation in place on every Observe call, so an
// Observation, every slice it holds, and the Ranking and pairs the
// Selector derives from it are valid only until the next Observe on that
// Observer. A caller that needs a value across quanta copies it out.
type Observation struct {
	Now    sim.Time
	Sample *platform.Sample
	// Alive lists live threads in ascending id order. The per-thread
	// slices below (Class through Held) are parallel to it: entry i
	// describes thread Alive[i], and Index maps an id to its position.
	Alive []platform.ThreadID
	// Class is the current per-thread classification.
	Class []ThreadClass
	// Rate is the measured access rate (misses/ms) per thread.
	Rate []float64
	// Baseline is the thread's intrinsic demand estimate: the mean
	// access rate of its process's threads this quantum. Homogeneous
	// threads of one process doing equal work make this a core-agnostic
	// demand figure.
	Baseline []float64
	// Instr is each thread's cumulative retired-instruction count — the
	// PMU-visible progress proxy the Selector uses to rotate lagging
	// siblings onto fast cores.
	Instr []float64
	// CoreOf is each thread's current core.
	CoreOf []platform.CoreID
	// Proc is each thread's process (benchmark) id. Process membership
	// is OS-visible (tgid), so using it carries no a priori knowledge
	// about application character.
	Proc []int
	// Held marks threads whose counter reading this quantum was missing
	// or rejected by sanitization; their Rate is the held last-good
	// estimate (zero once the estimate is too stale to trust). Consumers
	// must not treat held rates as fresh feedback — the Predictor's
	// error bookkeeping and the capability estimator both skip them.
	Held []bool
	// Capability is the per-core relative bandwidth capability estimate
	// (1.0 = average core): the moving mean of occupants' access rates
	// normalized by their process baselines. A thread running faster
	// than its process siblings reveals a strong core; slower, a weak
	// or contended one. This is the closed-loop realisation of the
	// paper's core identification: it needs no frequency tables and
	// tracks contention ("a core may become low-bandwidth due to
	// contention").
	Capability []float64
	// HighBW marks, by core id, the cores in the higher-capability half
	// of the occupied cores (the Observer's "core identification"). Only
	// occupied cores are ever marked.
	HighBW []bool
	// Sanitized counts this quantum's counter-sanitization actions.
	Sanitized SanitizeStats
	// Fairness is the Selector's gate value: the worst (maximum) over
	// processes of the coefficient of variation of access rates among
	// that process's threads. Homogeneous threads of one process
	// progressing at equal rates ⇒ low CV ⇒ fair; taking the worst
	// process makes the gate an online analogue of Eqn 4 that only
	// closes when every application is progressing uniformly.
	Fairness float64

	// slot numbers this quantum's processes densely: procs lists the
	// distinct process ids in ascending order, and slot[i] is the index
	// in procs of thread Alive[i]'s process. indexProcs fills both.
	slot  []int
	procs []int
	// sel holds the Selector's buffers, reused from quantum to quantum.
	sel selectScratch
}

// Index returns the position of thread id in Alive (and so in every
// per-thread slice), or -1 if id is not alive.
func (o *Observation) Index(id platform.ThreadID) int {
	i, ok := slices.BinarySearch(o.Alive, id)
	if !ok {
		return -1
	}
	return i
}

// HeldThreads returns how many alive threads' readings were held.
func (o *Observation) HeldThreads() int {
	n := 0
	for _, h := range o.Held {
		if h {
			n++
		}
	}
	return n
}

// indexProcs numbers the distinct processes of Proc in ascending process
// id and records each thread's slot. Siblings are usually adjacent in
// id order, so a thread whose process matches its predecessor's skips
// the search.
func (o *Observation) indexProcs() {
	o.procs = o.procs[:0]
	for i, p := range o.Proc {
		if i > 0 && p == o.Proc[i-1] {
			continue
		}
		if j, found := slices.BinarySearch(o.procs, p); !found {
			o.procs = slices.Insert(o.procs, j, p)
		}
	}
	o.slot = resize(o.slot, len(o.Proc))
	for i, p := range o.Proc {
		if i > 0 && p == o.Proc[i-1] {
			o.slot[i] = o.slot[i-1]
			continue
		}
		o.slot[i], _ = slices.BinarySearch(o.procs, p)
	}
}

// resize returns s with length n, reusing its storage when it is large
// enough. The contents are unspecified: callers overwrite or clear them.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// MemoryThreads returns how many alive threads are classified M.
func (o *Observation) MemoryThreads() int {
	n := 0
	for _, c := range o.Class {
		if c == MemoryClass {
			n++
		}
	}
	return n
}

// PredictRate is the Observer-backed estimate of the access rate thread
// id would achieve on core c: the core's relative capability times the
// thread's intrinsic demand baseline. It is the quantity Eqn 1 calls
// CoreBW — "the thread consumes the new core's bandwidth" — expressed in
// the migrating thread's own demand units so that swapping a compute
// thread onto a big core is not predicted to magically produce a memory
// hog's bandwidth. id must be alive.
func (o *Observation) PredictRate(id platform.ThreadID, c platform.CoreID) float64 {
	return o.Capability[c] * o.Baseline[o.Index(id)]
}

// SanitizeStats counts the Observer's counter-sanitization actions:
// what a hostile PMU fed it and what it did about it.
type SanitizeStats struct {
	// Dropped counts samples that were missing entirely (read lost).
	Dropped int
	// Rejected counts NaN/Inf/negative readings thrown away.
	Rejected int
	// Clamped counts finite readings capped at physical capacity.
	Clamped int
}

// add accumulates other into s.
func (s *SanitizeStats) add(other SanitizeStats) {
	s.Dropped += other.Dropped
	s.Rejected += other.Rejected
	s.Clamped += other.Clamped
}

// baselineAlpha is the EWMA weight for the per-process demand baseline.
const baselineAlpha = 0.3

// maxStaleQuanta bounds hold-last-good: a thread whose readings have
// been missing or garbage for more than this many consecutive quanta
// stops contributing its stale estimate (its rate reads zero and it is
// excluded from baseline updates) until a good sample arrives.
const maxStaleQuanta = 3

// minBaseline is the smallest process-mean access rate considered
// informative for capability estimation; below it the occupant reveals
// nothing about the core (an idle or stalled process).
const minBaseline = 0.02

// Observer performs the paper's two observation jobs (§III-A): thread
// classification (memory vs compute intensive, from measured LLC miss
// ratios) and core identification (higher vs lower bandwidth cores, via
// the per-core capability moving means). It sees only the platform seam:
// performance counters plus OS-visible thread and topology state.
type Observer struct {
	p      platform.Platform
	missTh float64
	// useIPC switches the contention metric from memory access rate to
	// instructions per ms (ablation only; see Config.UseIPCMetric).
	useIPC bool
	// capacity is the controller's physical service capacity; no sane
	// per-thread rate can exceed it, so saturated readings clamp here.
	capacity float64
	capab    []*stats.MovingMean
	// threads is the per-thread state that outlives a quantum, sorted by
	// thread id: the last classification and hold-last-good bookkeeping.
	threads []threadState
	// bases smooths each process's mean access rate across quanta so
	// that a single burst quantum does not fling a whole process across
	// the placement boundary and back (burst-chasing churn). Sorted by
	// process id.
	bases []procBaseline
	// sanitized accumulates sanitizer actions over the run.
	sanitized SanitizeStats

	// obs is the Observation every Observe call rebuilds in place.
	obs Observation
	// Scratch reused across quanta: keep marks the threads that feed
	// their process's demand estimate; procRates holds those threads'
	// rates grouped by process slot (slot s spans
	// procStart[s]:procStart[s+1], in Alive order); procMean is the
	// per-slot baseline; occupied marks occupied cores and caps holds
	// their capabilities for the median.
	keep      []bool
	procRates []float64
	procStart []int
	procMean  []float64
	occupied  []bool
	caps      []float64
}

// threadState is one thread's Observer state that carries across quanta.
type threadState struct {
	id    platform.ThreadID
	class ThreadClass
	// lastRate/staleFor implement hold-last-good: the last sane measured
	// rate, and for how many consecutive quanta the thread's reading has
	// been missing or rejected.
	lastRate float64
	staleFor int
}

// procBaseline is one process's smoothed demand baseline.
type procBaseline struct {
	proc int
	mean stats.MovingMean
}

func (t threadState) key() int  { return int(t.id) }
func (b procBaseline) key() int { return b.proc }

// keyed is an entry of a table sorted by key: the Observer's per-thread
// and per-process state and Dike's per-thread prediction errors.
type keyed interface{ key() int }

// entry returns the entry of *table whose key is fresh's, inserting
// fresh in order if there is none. Callers look keys up in ascending
// order, so the search starts at from, the index after the previous
// hit, and entry returns the next such index.
func entry[E keyed](table *[]E, from int, fresh E) (*E, int) {
	t, k := *table, fresh.key()
	if from < len(t) && t[from].key() == k {
		return &t[from], from + 1 // the common case: nothing left between
	}
	i, found := slices.BinarySearchFunc(t[from:], k, func(e E, k int) int { return cmp.Compare(e.key(), k) })
	i += from
	if !found {
		*table = slices.Insert(t, i, fresh)
	}
	return &(*table)[i], i + 1
}

// newObserver builds an observer over p. alpha is the EWMA weight of
// the capability estimates; missTh the M/C miss-ratio boundary; useIPC
// selects the contention metric (ablation).
func newObserver(p platform.Platform, alpha, missTh float64, useIPC bool) *Observer {
	cp := make([]*stats.MovingMean, p.Topology().NumCores())
	for i := range cp {
		cp[i] = stats.NewMovingMean(alpha)
	}
	return &Observer{
		p:        p,
		missTh:   missTh,
		useIPC:   useIPC,
		capacity: p.MemCapacity(),
		capab:    cp,
	}
}

// SanitizedTotal returns the sanitizer action counts accumulated over
// the run so far.
func (o *Observer) SanitizedTotal() SanitizeStats { return o.sanitized }

// Observe samples the counters at time now and derives the quantum's
// Observation. The first call of a run yields Interval 0 and no rates;
// Dike skips scheduling on it.
//
// Readings are sanitized on the way in: samples that are missing
// (counter read lost) or physically implausible (NaN, ±Inf, negative)
// are rejected and the thread's last sane rate is held in their place,
// up to maxStaleQuanta; finite rates beyond the memory controller's
// service capacity are clamped to it. Held threads are marked in
// Observation.Held and excluded from the capability and baseline
// estimators so garbage never enters the closed loop.
//
// The returned Observation is the Observer's own: the next Observe call
// rebuilds it in place. In steady state (no new threads, processes or
// larger thread counts) Observe allocates nothing.
func (o *Observer) Observe(now sim.Time) (*Observation, error) {
	sample := o.p.Sample(now)
	obs := &o.obs
	obs.Alive = append(obs.Alive[:0], o.p.Alive()...)
	slices.Sort(obs.Alive)
	n := len(obs.Alive)
	obs.Now, obs.Sample = now, sample
	obs.Class = resize(obs.Class, n)
	obs.Rate = resize(obs.Rate, n)
	obs.Baseline = resize(obs.Baseline, n)
	obs.Instr = resize(obs.Instr, n)
	obs.CoreOf = resize(obs.CoreOf, n)
	obs.Proc = resize(obs.Proc, n)
	obs.Held = resize(obs.Held, n)
	obs.Sanitized = SanitizeStats{}
	obs.Fairness = 0
	o.keep = resize(o.keep, n)

	next := 0 // where the next o.threads search starts
	for i, id := range obs.Alive {
		var ts *threadState
		ts, next = entry(&o.threads, next, threadState{id: id})
		delta, sampled := sample.Threads[id]
		good := sampled && delta.Sane()
		var rate float64
		if good {
			rate = delta.AccessRate()
			if o.useIPC {
				// Ablation: rank, gate and predict on IPC instead. Scaled
				// down so magnitudes are comparable to access rates.
				rate = delta.IPS() / 1000
			} else if rate > o.capacity {
				// A thread cannot miss faster than the controller serves:
				// the reading is saturated. Clamp rather than reject — the
				// direction ("very memory hungry") is still informative.
				rate = o.capacity
				obs.Sanitized.Clamped++
			}
		}
		held := false
		if sample.Interval > 0 && !good {
			if !sampled {
				obs.Sanitized.Dropped++
			} else {
				obs.Sanitized.Rejected++
			}
			ts.staleFor++
			if ts.staleFor <= maxStaleQuanta {
				// Hold-last-good: the thread keeps its last sane rate.
				rate = ts.lastRate
			}
			held = true
		} else if good {
			ts.staleFor = 0
			ts.lastRate = rate
		}
		obs.Rate[i] = rate
		obs.Held[i] = held
		obs.Instr[i] = sample.Instr[id]
		core, err := o.p.CoreOf(id)
		if err != nil {
			return nil, fmt.Errorf("core: observing thread %d: %w", id, err)
		}
		obs.CoreOf[i] = core
		proc, err := o.p.ProcessOf(id)
		if err != nil {
			return nil, fmt.Errorf("core: observing thread %d: %w", id, err)
		}
		obs.Proc[i] = proc
		// A thread held beyond the staleness bound contributes nothing to
		// its process's demand estimate: its zero rate is absence of
		// information, not measured idleness.
		o.keep[i] = !held || ts.staleFor <= maxStaleQuanta

		// Reclassify only when the thread actually issued accesses this
		// quantum (and the reading survived sanitization); a thread
		// stalled by a migration keeps its old class.
		if good && delta.Accesses > 0 {
			if delta.MissRatio() > o.missTh {
				ts.class = MemoryClass
			} else {
				ts.class = ComputeClass
			}
		}
		obs.Class[i] = ts.class
	}
	o.sanitized.add(obs.Sanitized)
	obs.indexProcs()
	o.processBaselines(obs)

	// Fold this quantum's measurements into the per-core capability
	// estimates (occupant rate over its process baseline). Held threads
	// reveal nothing about their core this quantum, so they are skipped.
	// Insane uncore readings are rejected and counted like thread
	// readings.
	if sample.Interval > 0 {
		for c := range o.capab {
			if !sample.Cores[c].Sane() {
				obs.Sanitized.Rejected++
				o.sanitized.Rejected++
			}
		}
		for i := range obs.Alive {
			if obs.Held[i] {
				continue
			}
			base := obs.Baseline[i]
			if base < minBaseline {
				continue
			}
			o.capab[int(obs.CoreOf[i])].Add(obs.Rate[i] / base)
		}
	}
	obs.Capability = resize(obs.Capability, len(o.capab))
	for c := range o.capab {
		if o.capab[c].Count() > 0 {
			obs.Capability[c] = o.capab[c].Value()
		} else {
			// Unvisited cores are assumed average until probed.
			obs.Capability[c] = 1
		}
	}
	o.identifyCores(obs)
	return obs, nil
}

// processBaselines sets each thread's Baseline to its process's demand
// estimate and the fairness gate to the worst per-process CV. The rates
// of the threads that feed the estimate are grouped by process slot in
// Alive order, so every per-process mean and CV folds its floats in
// Alive order.
func (o *Observer) processBaselines(obs *Observation) {
	np := len(obs.procs)
	// Counting sort: start[s] first counts slot s, then becomes the end
	// of its run, and the backward fill moves it to the run's start
	// while keeping each run in Alive order.
	start := resize(o.procStart, np+1)
	clear(start)
	for i, s := range obs.slot {
		if o.keep[i] {
			start[s]++
		}
	}
	for s := 1; s <= np; s++ {
		start[s] += start[s-1]
	}
	rates := resize(o.procRates, start[np])
	for i := len(obs.slot) - 1; i >= 0; i-- {
		if s := obs.slot[i]; o.keep[i] {
			start[s]--
			rates[start[s]] = obs.Rate[i]
		}
	}
	mean := resize(o.procMean, np)
	next := 0 // where the next o.bases search starts
	for s := 0; s < np; s++ {
		rs := rates[start[s]:start[s+1]]
		if len(rs) == 0 {
			// Every thread held beyond the staleness bound: no estimate.
			mean[s] = 0
			continue
		}
		m := stats.Mean(rs)
		if obs.Sample.Interval > 0 {
			var b *procBaseline
			b, next = entry(&o.bases, next, procBaseline{proc: obs.procs[s], mean: *stats.NewMovingMean(baselineAlpha)})
			b.mean.Add(m)
			m = b.mean.Value()
		}
		mean[s] = m
		if cv := stats.CV(rs); cv > obs.Fairness {
			obs.Fairness = cv
		}
	}
	for i, s := range obs.slot {
		obs.Baseline[i] = mean[s]
	}
	o.procStart, o.procRates, o.procMean = start, rates, mean
}

// identifyCores is the Observer's core identification: a median split
// of capability over occupied cores. Strictly-greater-than-median marks
// the high half so that a degenerate all-equal state (cold start)
// classifies everything low and the Selector stays quiet rather than
// thrashing.
func (o *Observer) identifyCores(obs *Observation) {
	occupied := resize(o.occupied, len(obs.Capability))
	clear(occupied)
	nocc := 0
	for _, c := range obs.CoreOf {
		if !occupied[c] {
			occupied[c] = true
			nocc++
		}
	}
	obs.HighBW = resize(obs.HighBW, len(obs.Capability))
	clear(obs.HighBW)
	o.occupied = occupied
	if nocc <= 1 {
		return
	}
	caps := o.caps[:0]
	for c, occ := range occupied {
		if occ {
			caps = append(caps, obs.Capability[c])
		}
	}
	o.caps = caps
	median := stats.MedianInPlace(caps)
	for c, occ := range occupied {
		if occ && obs.Capability[c] > median {
			obs.HighBW[c] = true
		}
	}
}
