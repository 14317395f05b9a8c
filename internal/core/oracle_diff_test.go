package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dike/internal/platform"
	"dike/internal/sim"
)

// copyAlive serves a script to the oracle Observer, which sorts the
// slice Alive returns in place: it gets a copy, so the dense Observer
// keeps seeing the script's unsorted order.
type copyAlive struct{ *scriptPlatform }

func (p copyAlive) Alive() []platform.ThreadID {
	return slices.Clone(p.scriptPlatform.Alive())
}

// sameBits reports whether two floats are the same IEEE-754 value.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffObservation reports the first difference between the dense
// observation got and the oracle's want, or "".
func diffObservation(got *Observation, want *oracleObservation) string {
	if !slices.Equal(got.Alive, want.Alive) {
		return "Alive"
	}
	for i, id := range got.Alive {
		switch {
		case !sameBits(got.Rate[i], want.Rate[id]):
			return "Rate"
		case !sameBits(got.Baseline[i], want.Baseline[id]):
			return "Baseline"
		case !sameBits(got.Instr[i], want.Instr[id]):
			return "Instr"
		case got.Class[i] != want.Class[id]:
			return "Class"
		case got.Held[i] != want.Held[id]:
			return "Held"
		case got.CoreOf[i] != want.CoreOf[id]:
			return "CoreOf"
		case got.Proc[i] != want.Proc[id]:
			return "Proc"
		}
	}
	if got.HeldThreads() != len(want.Held) {
		return "HeldThreads"
	}
	if len(got.Capability) != len(want.Capability) || len(got.HighBW) != len(want.Capability) {
		return "per-core lengths"
	}
	for c := range got.Capability {
		switch {
		case !sameBits(got.Capability[c], want.Capability[c]):
			return "Capability"
		case got.HighBW[c] != want.HighBW[platform.CoreID(c)]:
			return "HighBW"
		}
	}
	switch {
	case !sameBits(got.Fairness, want.Fairness):
		return "Fairness"
	case got.Sanitized != want.Sanitized:
		return "Sanitized"
	case got.Now != want.Now || got.Sample != want.Sample:
		return "Now/Sample"
	}
	return ""
}

// diffSelection reports the first difference between the dense and the
// oracle Selector on the same observation, or "".
func diffSelection(got *Observation, want *oracleObservation, swapSize int) string {
	r, wr := NewRanking(got), newOracleRanking(want)
	if !slices.Equal(r.Sorted, wr.Sorted) {
		return "Ranking.Sorted"
	}
	if r.Boundary != wr.Boundary {
		return "Ranking.Boundary"
	}
	gp, wp := SelectPairs(got, swapSize), oracleSelectPairs(want, swapSize)
	if !slices.Equal(gp, wp) {
		return "pairs"
	}
	return ""
}

// tieStats counts what a differential run exercised.
type tieStats struct {
	// nearTie and nearGap count cross-process thread pairs whose demand
	// baselines differ by at most baselineTie (but are not equal), and
	// by more than it but at most 10·baselineTie.
	nearTie, nearGap int
	// instrTie counts sibling pairs with equal retired instructions.
	instrTie int
	pairs    int
}

func (s *tieStats) add(obs *Observation) {
	for i := range obs.Alive {
		for j := i + 1; j < len(obs.Alive); j++ {
			if obs.Proc[i] == obs.Proc[j] {
				if obs.Instr[i] == obs.Instr[j] {
					s.instrTie++
				}
				continue
			}
			switch d := math.Abs(obs.Baseline[i] - obs.Baseline[j]); {
			case d == 0:
			case d <= baselineTie:
				s.nearTie++
			case d <= 10*baselineTie:
				s.nearGap++
			}
		}
	}
}

// TestObserveMatchesOracle drives the dense Observer and the map-based
// oracle with the same seeded quanta — faulty readings, dropped samples,
// zero-length quanta, churning threads with non-contiguous ids — and
// requires bit-identical observations and identical rankings and pairs.
func TestObserveMatchesOracle(t *testing.T) {
	var ts tieStats
	var sanitized SanitizeStats
	churned := false
	for seed := int64(1); seed <= 8; seed++ {
		sp := newScript(seed, scriptConfig{cores: 12, threads: 30, procs: 6, quanta: 80, faults: true, churn: true})
		useIPC := seed%4 == 0
		o := newObserver(sp, 0.25, 0.10, useIPC)
		oo := newOracleObserver(copyAlive{sp}, 0.25, 0.10, useIPC)
		for q := range sp.quanta {
			sp.q = q
			now := sim.Time(q * 500)
			got, err := o.Observe(now)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oo.Observe(now)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffObservation(got, want); d != "" {
				t.Fatalf("seed %d quantum %d: %s differs from the oracle", seed, q, d)
			}
			for _, swap := range []int{2, 4, 8, 16} {
				if d := diffSelection(got, want, swap); d != "" {
					t.Fatalf("seed %d quantum %d swap %d: %s differ from the oracle", seed, q, swap, d)
				}
			}
			ts.add(got)
			ts.pairs += len(SelectPairs(got, 16))
			if q > 0 && len(sp.quanta[q].alive) != len(sp.quanta[q-1].alive) {
				churned = true
			}
		}
		if o.SanitizedTotal() != oo.sanitized {
			t.Fatalf("seed %d: run sanitizer totals %+v, oracle %+v", seed, o.SanitizedTotal(), oo.sanitized)
		}
		sanitized.add(o.SanitizedTotal())
	}
	t.Logf("coverage: %+v sanitized %+v", ts, sanitized)
	// The run must have exercised what it claims to.
	if sanitized.Dropped == 0 || sanitized.Rejected == 0 || sanitized.Clamped == 0 {
		t.Errorf("sanitizer paths not all exercised: %+v", sanitized)
	}
	if ts.nearTie == 0 || ts.nearGap == 0 || ts.instrTie == 0 || ts.pairs == 0 || !churned {
		t.Errorf("coverage too thin: %+v, churned %v", ts, churned)
	}
}

// makeOracleObs is makeObs for the oracle's map-based observation.
func makeOracleObs(specs []obsSpec) *oracleObservation {
	obs := &oracleObservation{
		Class:    map[platform.ThreadID]ThreadClass{},
		Rate:     map[platform.ThreadID]float64{},
		Baseline: map[platform.ThreadID]float64{},
		Instr:    map[platform.ThreadID]float64{},
		CoreOf:   map[platform.ThreadID]platform.CoreID{},
		Proc:     map[platform.ThreadID]int{},
		HighBW:   map[platform.CoreID]bool{},
	}
	maxCore := platform.CoreID(0)
	for _, s := range specs {
		if s.core > maxCore {
			maxCore = s.core
		}
	}
	obs.Capability = make([]float64, int(maxCore)+1)
	for i := range obs.Capability {
		obs.Capability[i] = 1
	}
	for _, s := range specs {
		obs.Alive = append(obs.Alive, s.id)
		obs.Class[s.id] = s.class
		obs.Rate[s.id] = s.rate
		obs.Baseline[s.id] = s.baseline
		obs.Instr[s.id] = s.instr
		obs.CoreOf[s.id] = s.core
		obs.Proc[s.id] = s.proc
		if s.coreHigh {
			obs.HighBW[s.core] = true
		}
		if s.coreCap > 0 {
			obs.Capability[s.core] = s.coreCap
		}
	}
	return obs
}

// TestSelectPairsMatchesOracle checks the dense Selector against the
// map-based one on hand-built observations whose demand baselines sit
// on a ladder of steps around baselineTie, so the non-transitive ranking
// comparator is exercised on both sides of the threshold, with coarse
// progress counts that tie often.
func TestSelectPairsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	steps := []float64{0, 0.4e-9, 0.6e-9, 1e-9, 1.3e-9, 5e-9}
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(65)
		cores := 1 + rng.Intn(48)
		procs := 1 + rng.Intn(6)
		centers := []float64{0.05, 0.3, 1, 3}
		var specs []obsSpec
		id := platform.ThreadID(-10)
		for i := 0; i < n; i++ {
			id += platform.ThreadID(1 + rng.Intn(3))
			base := centers[rng.Intn(len(centers))]
			for k := rng.Intn(4); k > 0; k-- {
				base += steps[rng.Intn(len(steps))]
			}
			class := ComputeClass
			if base > 1 || rng.Intn(8) == 0 {
				class = MemoryClass
			}
			specs = append(specs, obsSpec{
				id:       id,
				proc:     scriptProcIDs[rng.Intn(procs)],
				class:    class,
				rate:     base * (0.5 + rng.Float64()),
				baseline: base,
				instr:    float64(1000 * rng.Intn(6)),
				core:     platform.CoreID(rng.Intn(cores)),
				coreHigh: rng.Intn(2) == 0,
				coreCap:  0.6 + 0.1*float64(rng.Intn(9)),
			})
		}
		// A core is high or not for all its occupants.
		high := map[platform.CoreID]bool{}
		capab := map[platform.CoreID]float64{}
		for i, s := range specs {
			if h, ok := high[s.core]; ok {
				specs[i].coreHigh, specs[i].coreCap = h, capab[s.core]
			}
			high[s.core], capab[s.core] = specs[i].coreHigh, specs[i].coreCap
		}
		got, want := makeObs(specs), makeOracleObs(specs)
		for _, swap := range []int{0, 2, 3, 4, 8, 16, 64} {
			if d := diffSelection(got, want, swap); d != "" {
				t.Fatalf("trial %d (%d threads) swap %d: %s differ from the oracle", trial, n, swap, d)
			}
		}
	}
}
