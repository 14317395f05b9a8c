package core

import (
	"testing"

	"dike/internal/platform"
)

// obsWithMix builds a minimal observation with the given M/C thread mix.
func obsWithMix(mem, comp int) *Observation {
	var specs []obsSpec
	id := 0
	for i := 0; i < mem; i++ {
		specs = append(specs, obsSpec{id: platform.ThreadID(id), proc: 0, class: MemoryClass, rate: 3, baseline: 3, core: platform.CoreID(id)})
		id++
	}
	for i := 0; i < comp; i++ {
		specs = append(specs, obsSpec{id: platform.ThreadID(id), proc: 1, class: ComputeClass, rate: 0.2, baseline: 0.2, core: platform.CoreID(id)})
		id++
	}
	return makeObs(specs)
}

func TestClassifyWorkload(t *testing.T) {
	cases := []struct {
		mem, comp int
		want      WorkloadType
	}{
		{20, 20, TypeB},  // true balance
		{24, 16, TypeB},  // balanced Table II mix with kmeans counted M
		{12, 28, TypeUC}, // unbalanced compute
		{32, 8, TypeUM},  // unbalanced memory
	}
	for _, c := range cases {
		if got := classifyWorkload(obsWithMix(c.mem, c.comp)); got != c.want {
			t.Errorf("%dM/%dC = %v, want %v", c.mem, c.comp, got, c.want)
		}
	}
	if classifyWorkload(makeObs(nil)) != TypeB {
		t.Error("empty observation should default to B")
	}
}

// step runs the optimizer once with an unfair system and a flat metric.
func step(o *Optimizer, obs *Observation) {
	goal := 0.5 // flat metric; guard never triggers
	o.Step(obs, 0.5, 0.1, goal)
}

func TestOptimizerFairnessRules(t *testing.T) {
	// Algorithm 2, fairness goal.
	cases := []struct {
		mix        *Observation
		steps      int
		wantSwap   int
		wantQuanta int64
	}{
		// B: decrease quanta to the floor of 100; swapSize untouched.
		{obsWithMix(20, 20), 5, 8, 100},
		// UC: swapSize up to 16, quanta floored at 200.
		{obsWithMix(12, 28), 6, 16, 200},
		// UM: swapSize up, quanta floored at 500.
		{obsWithMix(32, 8), 6, 16, 500},
	}
	for i, c := range cases {
		o := NewOptimizer(AdaptFairness, 8, 500, false)
		for s := 0; s < c.steps; s++ {
			step(o, c.mix)
		}
		ss, q := o.Params()
		if ss != c.wantSwap || q.Millis() != c.wantQuanta {
			t.Errorf("case %d: params = ⟨%d,%d⟩, want ⟨%d,%d⟩", i, ss, q.Millis(), c.wantSwap, c.wantQuanta)
		}
	}
}

func TestOptimizerPerformanceRules(t *testing.T) {
	cases := []struct {
		mix        *Observation
		wantSwap   int
		wantQuanta int64
	}{
		{obsWithMix(20, 20), 8, 1000},  // B: quanta up
		{obsWithMix(12, 28), 16, 1000}, // UC: swapSize and quanta up
		{obsWithMix(32, 8), 8, 1000},   // UM: quanta up only
	}
	for i, c := range cases {
		o := NewOptimizer(AdaptPerformance, 8, 500, false)
		for s := 0; s < 6; s++ {
			step(o, c.mix)
		}
		ss, q := o.Params()
		if ss != c.wantSwap || q.Millis() != c.wantQuanta {
			t.Errorf("case %d: params = ⟨%d,%d⟩, want ⟨%d,%d⟩", i, ss, q.Millis(), c.wantSwap, c.wantQuanta)
		}
	}
}

func TestOptimizerOneUnitPerInvocation(t *testing.T) {
	// "updating quantaLength from 100 to 1000 milliseconds requires
	// calling optimizer for 3 times."
	o := NewOptimizer(AdaptPerformance, 8, 100, false)
	mix := obsWithMix(32, 8) // UM: quanta up only
	for calls := 1; calls <= 3; calls++ {
		step(o, mix)
		_, q := o.Params()
		want := QuantaLevels[calls]
		if q != want {
			t.Fatalf("after %d calls quanta = %v, want %v", calls, q, want)
		}
	}
}

func TestOptimizerFairSystemNoChange(t *testing.T) {
	o := NewOptimizer(AdaptFairness, 8, 500, false)
	o.Step(obsWithMix(20, 20), 0.05, 0.1, 0.05) // fair: below θf
	ss, q := o.Params()
	if ss != 8 || q != 500 {
		t.Error("optimizer moved while system was fair")
	}
}

func TestOptimizerNoneGoalInert(t *testing.T) {
	o := NewOptimizer(AdaptNone, 8, 500, false)
	step(o, obsWithMix(20, 20))
	ss, q := o.Params()
	if ss != 8 || q != 500 {
		t.Error("AdaptNone optimizer moved")
	}
}

func TestOptimizerGuardReverts(t *testing.T) {
	o := NewOptimizer(AdaptFairness, 8, 500, true)
	mix := obsWithMix(20, 20)
	// First step establishes the metric and moves quanta 500 -> 200.
	o.Step(mix, 0.5, 0.1, 0.30)
	_, q := o.Params()
	if q != 200 {
		t.Fatalf("first step quanta = %v, want 200", q)
	}
	// The metric got much worse (fairness goal: higher is worse): the
	// guard must revert to 500 and hold.
	o.Step(mix, 0.5, 0.1, 0.60)
	_, q = o.Params()
	if q != 500 {
		t.Fatalf("guard did not revert: quanta = %v", q)
	}
	// During the hold no new steps happen.
	o.Step(mix, 0.5, 0.1, 0.60)
	_, q = o.Params()
	if q != 500 {
		t.Error("optimizer moved during hold")
	}
}

func TestOptimizerGuardAcceptsImprovement(t *testing.T) {
	o := NewOptimizer(AdaptFairness, 8, 500, true)
	mix := obsWithMix(20, 20)
	o.Step(mix, 0.5, 0.1, 0.30)
	// Metric improved: keep going down to the floor.
	o.Step(mix, 0.5, 0.1, 0.20)
	_, q := o.Params()
	if q != 100 {
		t.Errorf("quanta = %v, want 100 after accepted improvement", q)
	}
}
