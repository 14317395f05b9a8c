package core

import (
	"fmt"
	"sort"

	"dike/internal/platform"
	"dike/internal/sim"
	"dike/internal/stats"
)

// This file keeps the map-based Observer and Selector that the dense,
// buffer-reusing ones replaced, verbatim but for their type names. The
// differential tests in oracle_diff_test.go drive both with the same
// quanta and require bit-identical observations and identical pairs.

// oracleObservation is the map-based Observation.
type oracleObservation struct {
	Now        sim.Time
	Sample     *platform.Sample
	Alive      []platform.ThreadID
	Class      map[platform.ThreadID]ThreadClass
	Rate       map[platform.ThreadID]float64
	Baseline   map[platform.ThreadID]float64
	Instr      map[platform.ThreadID]float64
	CoreOf     map[platform.ThreadID]platform.CoreID
	Proc       map[platform.ThreadID]int
	Capability []float64
	HighBW     map[platform.CoreID]bool
	Held       map[platform.ThreadID]bool
	Sanitized  SanitizeStats
	Fairness   float64
}

// oracleObserver is the map-based Observer.
type oracleObserver struct {
	p         platform.Platform
	missTh    float64
	useIPC    bool
	capacity  float64
	capab     []*stats.MovingMean
	class     map[platform.ThreadID]ThreadClass
	procBase  map[int]*stats.MovingMean
	lastRate  map[platform.ThreadID]float64
	staleFor  map[platform.ThreadID]int
	sanitized SanitizeStats
}

// newOracleObserver is the map-based newObserver.
func newOracleObserver(p platform.Platform, alpha, missTh float64, useIPC bool) *oracleObserver {
	cp := make([]*stats.MovingMean, p.Topology().NumCores())
	for i := range cp {
		cp[i] = stats.NewMovingMean(alpha)
	}
	return &oracleObserver{
		p:        p,
		missTh:   missTh,
		useIPC:   useIPC,
		capacity: p.MemCapacity(),
		capab:    cp,
		class:    make(map[platform.ThreadID]ThreadClass),
		procBase: make(map[int]*stats.MovingMean),
		lastRate: make(map[platform.ThreadID]float64),
		staleFor: make(map[platform.ThreadID]int),
	}
}

// Observe is the map-based Observer.Observe.
func (o *oracleObserver) Observe(now sim.Time) (*oracleObservation, error) {
	sample := o.p.Sample(now)
	alive := o.p.Alive()
	sort.Slice(alive, func(i, j int) bool { return alive[i] < alive[j] })

	obs := &oracleObservation{
		Now:      now,
		Sample:   sample,
		Alive:    alive,
		Class:    make(map[platform.ThreadID]ThreadClass, len(alive)),
		Rate:     make(map[platform.ThreadID]float64, len(alive)),
		Baseline: make(map[platform.ThreadID]float64, len(alive)),
		Instr:    make(map[platform.ThreadID]float64, len(alive)),
		CoreOf:   make(map[platform.ThreadID]platform.CoreID, len(alive)),
		Proc:     make(map[platform.ThreadID]int, len(alive)),
		Held:     make(map[platform.ThreadID]bool),
		HighBW:   make(map[platform.CoreID]bool),
	}

	rates := make([]float64, 0, len(alive))
	byProc := make(map[int][]float64)
	for _, id := range alive {
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
		if sample.Interval > 0 && !good {
			if !sampled {
				obs.Sanitized.Dropped++
			} else {
				obs.Sanitized.Rejected++
			}
			o.staleFor[id]++
			if o.staleFor[id] <= maxStaleQuanta {
				// Hold-last-good: the thread keeps its last sane rate.
				rate = o.lastRate[id]
			}
			obs.Held[id] = true
		} else if good {
			o.staleFor[id] = 0
			o.lastRate[id] = rate
		}
		obs.Rate[id] = rate
		rates = append(rates, rate)
		obs.Instr[id] = sample.Instr[id]
		core, err := o.p.CoreOf(id)
		if err != nil {
			return nil, fmt.Errorf("core: observing thread %d: %w", id, err)
		}
		obs.CoreOf[id] = core
		proc, err := o.p.ProcessOf(id)
		if err != nil {
			return nil, fmt.Errorf("core: observing thread %d: %w", id, err)
		}
		obs.Proc[id] = proc
		// A thread held beyond the staleness bound contributes nothing to
		// its process's demand estimate: its zero rate is absence of
		// information, not measured idleness.
		if !obs.Held[id] || o.staleFor[id] <= maxStaleQuanta {
			byProc[proc] = append(byProc[proc], rate)
		}

		// Reclassify only when the thread actually issued accesses this
		// quantum (and the reading survived sanitization); a thread
		// stalled by a migration keeps its old class.
		if good && delta.Accesses > 0 {
			if delta.MissRatio() > o.missTh {
				o.class[id] = MemoryClass
			} else {
				o.class[id] = ComputeClass
			}
		}
		obs.Class[id] = o.class[id]
	}
	o.sanitized.add(obs.Sanitized)
	procMean := make(map[int]float64, len(byProc))
	for p, rs := range byProc {
		mean := stats.Mean(rs)
		if sample.Interval > 0 {
			mm := o.procBase[p]
			if mm == nil {
				mm = stats.NewMovingMean(baselineAlpha)
				o.procBase[p] = mm
			}
			mm.Add(mean)
			mean = mm.Value()
		}
		procMean[p] = mean
		if cv := stats.CV(rs); cv > obs.Fairness {
			obs.Fairness = cv
		}
	}
	for _, id := range alive {
		obs.Baseline[id] = procMean[obs.Proc[id]]
	}

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
		for _, id := range alive {
			if obs.Held[id] {
				continue
			}
			base := obs.Baseline[id]
			if base < minBaseline {
				continue
			}
			c := obs.CoreOf[id]
			o.capab[int(c)].Add(obs.Rate[id] / base)
		}
	}
	obs.Capability = make([]float64, len(o.capab))
	for c := range o.capab {
		if o.capab[c].Count() > 0 {
			obs.Capability[c] = o.capab[c].Value()
		} else {
			// Unvisited cores are assumed average until probed.
			obs.Capability[c] = 1
		}
	}

	// Core identification: median split of capability over occupied
	// cores. Strictly-greater-than-median marks the high half so that a
	// degenerate all-equal state (cold start) classifies everything low
	// and the Selector stays quiet rather than thrashing.
	occupied := make(map[platform.CoreID]bool, len(alive))
	for _, c := range obs.CoreOf {
		occupied[c] = true
	}
	if len(occupied) > 1 {
		caps := make([]float64, 0, len(occupied))
		for c := range occupied {
			caps = append(caps, obs.Capability[c])
		}
		median := stats.MedianInPlace(caps)
		for c := range occupied {
			if obs.Capability[c] > median {
				obs.HighBW[c] = true
			}
		}
	}
	return obs, nil
}

// oracleRanking is the map-based Ranking.
type oracleRanking struct {
	Sorted   []platform.ThreadID
	Boundary int
	obs      *oracleObservation
	procMean map[int]float64
}

// newOracleRanking is the map-based NewRanking.
func newOracleRanking(obs *oracleObservation) *oracleRanking {
	sorted := make([]platform.ThreadID, len(obs.Alive))
	copy(sorted, obs.Alive)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		ba, bb := obs.Baseline[a], obs.Baseline[b]
		if diff := ba - bb; diff < -baselineTie || diff > baselineTie {
			return ba < bb
		}
		// Demand tie: more progress sorts lower (less deserving of a
		// fast core). Only meaningful within a process, but harmless as
		// a global rule since cross-process exact ties are accidental.
		ia, ib := obs.Instr[a], obs.Instr[b]
		if ia != ib {
			return ia > ib
		}
		return a < b
	})
	// Count occupied high-bandwidth cores: that is how many threads the
	// ideal mapping can put on the high side.
	k := 0
	seen := make(map[platform.CoreID]bool, len(obs.CoreOf))
	for _, c := range obs.CoreOf {
		if !seen[c] {
			seen[c] = true
			if obs.HighBW[c] {
				k++
			}
		}
	}
	boundary := len(sorted) - k
	if boundary < 0 {
		boundary = 0
	}
	// Per-process progress means, accumulated in obs.Alive order so the
	// float summation order matches the former per-call computation.
	sum := make(map[int]float64)
	cnt := make(map[int]int)
	for _, id := range obs.Alive {
		sum[obs.Proc[id]] += obs.Instr[id]
		cnt[obs.Proc[id]]++
	}
	mean := make(map[int]float64, len(sum))
	for p, s := range sum {
		mean[p] = s / float64(cnt[p])
	}
	return &oracleRanking{Sorted: sorted, Boundary: boundary, obs: obs, procMean: mean}
}

func (r *oracleRanking) HighDeserving(i int) bool { return i >= r.Boundary }

func (r *oracleRanking) Violator(i int) bool {
	onHigh := r.obs.HighBW[r.obs.CoreOf[r.Sorted[i]]]
	return r.HighDeserving(i) != onHigh
}

func (r *oracleRanking) admissible(h, t int) bool {
	lo, hi := r.Sorted[h], r.Sorted[t]
	obs := r.obs
	if obs.Proc[lo] == obs.Proc[hi] {
		// Intra-process rotation: only worthwhile if the sibling on the
		// better core is materially ahead.
		mean := r.procMean[obs.Proc[lo]]
		if mean == 0 {
			return false
		}
		return (obs.Instr[lo]-obs.Instr[hi])/mean > ProgressDeadband
	}
	bl, bh := obs.Baseline[lo], obs.Baseline[hi]
	return bh-bl > PairDeadband*bh
}

// oracleSelectPairs is the map-based SelectPairs.
func oracleSelectPairs(obs *oracleObservation, swapSize int) []Pair {
	n := len(obs.Alive)
	if n < 2 || swapSize < 2 {
		return nil
	}
	maxPairs := swapSize / 2
	r := newOracleRanking(obs)

	// All threads the same type: pair from both ends regardless of the
	// placement rule.
	if oracleSameClass(obs) {
		var pairs []Pair
		for k := 0; k < maxPairs && k < n-1-k; k++ {
			if !r.admissible(k, n-1-k) {
				continue
			}
			pairs = append(pairs, Pair{Low: r.Sorted[k], High: r.Sorted[n-1-k]})
		}
		return pairs
	}

	var pairs []Pair
	head, tail := 0, n-1
	for len(pairs) < maxPairs && head < tail {
		// Advance head to the next low-side violator.
		for head < n && !(r.Violator(head) && !r.HighDeserving(head)) {
			head++
		}
		// Retreat tail to the next high-side violator.
		for tail >= 0 && !(r.Violator(tail) && r.HighDeserving(tail)) {
			tail--
		}
		if head >= tail || head >= n || tail < 0 {
			break // pointers crossed: fewer violators than swapSize
		}
		if !r.admissible(head, tail) {
			head++ // look for a more distinct low-side candidate
			continue
		}
		pairs = append(pairs, Pair{Low: r.Sorted[head], High: r.Sorted[tail]})
		head++
		tail--
	}
	pairs = oracleAppendEqualizePairs(obs, pairs, maxPairs)
	return pairs
}

// oracleAppendEqualizePairs is the map-based appendEqualizePairs.
func oracleAppendEqualizePairs(obs *oracleObservation, pairs []Pair, maxPairs int) []Pair {
	if len(pairs) >= maxPairs {
		return pairs
	}
	used := make(map[platform.ThreadID]bool, 2*len(pairs))
	for _, p := range pairs {
		used[p.Low] = true
		used[p.High] = true
	}
	byProc := make(map[int][]platform.ThreadID)
	for _, id := range obs.Alive {
		if !used[id] {
			byProc[obs.Proc[id]] = append(byProc[obs.Proc[id]], id)
		}
	}
	type cand struct {
		pair   Pair
		spread float64
	}
	var cands []cand
	for _, ids := range byProc {
		if len(ids) < 2 {
			continue
		}
		ahead, behind := ids[0], ids[0]
		mean := 0.0
		for _, id := range ids {
			mean += obs.Instr[id]
			if obs.Instr[id] > obs.Instr[ahead] {
				ahead = id
			}
			if obs.Instr[id] < obs.Instr[behind] {
				behind = id
			}
		}
		mean /= float64(len(ids))
		if mean <= 0 {
			continue
		}
		spread := (obs.Instr[ahead] - obs.Instr[behind]) / mean
		if spread <= 2*ProgressDeadband {
			continue
		}
		capAhead := obs.Capability[obs.CoreOf[ahead]]
		capBehind := obs.Capability[obs.CoreOf[behind]]
		if capAhead <= capBehind*EqualizeCapMargin {
			continue
		}
		cands = append(cands, cand{pair: Pair{Low: ahead, High: behind, Equalize: true}, spread: spread})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].spread != cands[j].spread {
			return cands[i].spread > cands[j].spread
		}
		return cands[i].pair.High < cands[j].pair.High
	})
	for _, c := range cands {
		if len(pairs) >= maxPairs {
			break
		}
		pairs = append(pairs, c.pair)
	}
	return pairs
}

func oracleSameClass(obs *oracleObservation) bool {
	if len(obs.Alive) == 0 {
		return true
	}
	first := obs.Class[obs.Alive[0]]
	for _, id := range obs.Alive[1:] {
		if obs.Class[id] != first {
			return false
		}
	}
	return true
}
