package core

import (
	"testing"

	"dike/internal/platform"
)

// fakeObs builds an Observation by hand so Selector logic can be tested
// in isolation from the machine.
type obsSpec struct {
	id       platform.ThreadID
	proc     int
	class    ThreadClass
	rate     float64
	baseline float64
	instr    float64
	core     platform.CoreID
	coreHigh bool
	coreCap  float64
}

func makeObs(specs []obsSpec) *Observation {
	obs := &Observation{}
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
	obs.HighBW = make([]bool, int(maxCore)+1)
	for _, s := range specs {
		if n := len(obs.Alive); n > 0 && s.id <= obs.Alive[n-1] {
			panic("makeObs: thread ids must ascend")
		}
		obs.Alive = append(obs.Alive, s.id)
		obs.Class = append(obs.Class, s.class)
		obs.Rate = append(obs.Rate, s.rate)
		obs.Baseline = append(obs.Baseline, s.baseline)
		obs.Instr = append(obs.Instr, s.instr)
		obs.CoreOf = append(obs.CoreOf, s.core)
		obs.Proc = append(obs.Proc, s.proc)
		obs.Held = append(obs.Held, false)
		if s.coreHigh {
			obs.HighBW[s.core] = true
		}
		if s.coreCap > 0 {
			obs.Capability[s.core] = s.coreCap
		}
	}
	obs.indexProcs()
	return obs
}

func TestRankingBoundaryCountsHighCores(t *testing.T) {
	obs := makeObs([]obsSpec{
		{id: 0, proc: 0, class: ComputeClass, rate: 0.1, baseline: 0.1, core: 0, coreHigh: true},
		{id: 1, proc: 0, class: ComputeClass, rate: 0.2, baseline: 0.1, core: 1, coreHigh: true},
		{id: 2, proc: 1, class: MemoryClass, rate: 3, baseline: 3, core: 2},
		{id: 3, proc: 1, class: MemoryClass, rate: 4, baseline: 3, core: 3},
	})
	r := NewRanking(obs)
	if r.Boundary != 2 {
		t.Errorf("boundary = %d, want 2 (two high cores)", r.Boundary)
	}
	// Both memory threads deserve high cores but sit on low ones.
	for i := 2; i < 4; i++ {
		if !r.Violator(i) {
			t.Errorf("rank %d should be a violator", i)
		}
	}
	// Both compute threads squat on high cores.
	for i := 0; i < 2; i++ {
		if !r.Violator(i) {
			t.Errorf("rank %d should be a violator", i)
		}
	}
}

func TestSelectPairsRepairsMisplacement(t *testing.T) {
	obs := makeObs([]obsSpec{
		{id: 0, proc: 0, class: ComputeClass, rate: 0.1, baseline: 0.1, core: 0, coreHigh: true},
		{id: 1, proc: 0, class: ComputeClass, rate: 0.12, baseline: 0.1, core: 1, coreHigh: true},
		{id: 2, proc: 1, class: MemoryClass, rate: 3, baseline: 3.2, instr: 10, core: 2},
		{id: 3, proc: 1, class: MemoryClass, rate: 4, baseline: 3.2, instr: 5, core: 3},
	})
	pairs := SelectPairs(obs, 4)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v, want 2", pairs)
	}
	for _, p := range pairs {
		if obs.Class[obs.Index(p.Low)] != ComputeClass || obs.Class[obs.Index(p.High)] != MemoryClass {
			t.Errorf("pair %v does not cross the boundary", p)
		}
		if p.Equalize {
			t.Errorf("placement pair marked Equalize")
		}
	}
	// The lagging memory thread (id 3, fewer instructions) ranks higher
	// and must be paired first with the lowest compute squatter.
	if pairs[0].High != 3 {
		t.Errorf("first pair high = %d, want the lagging sibling 3", pairs[0].High)
	}
}

func TestSelectPairsRespectsSwapSize(t *testing.T) {
	var specs []obsSpec
	for i := 0; i < 8; i++ {
		specs = append(specs, obsSpec{
			id: platform.ThreadID(i), proc: 0, class: ComputeClass,
			rate: 0.1 + float64(i)*0.01, baseline: 0.1, core: platform.CoreID(i), coreHigh: true,
		})
	}
	for i := 8; i < 16; i++ {
		specs = append(specs, obsSpec{
			id: platform.ThreadID(i), proc: 1, class: MemoryClass,
			rate: 3 + float64(i)*0.01, baseline: 3, instr: float64(i), core: platform.CoreID(i),
		})
	}
	obs := makeObs(specs)
	pairs := SelectPairs(obs, 4)
	if len(pairs) > 2 {
		t.Errorf("swapSize 4 produced %d pairs", len(pairs))
	}
}

func TestSelectPairsFairGateIsCallerResponsibility(t *testing.T) {
	// SelectPairs with no violators returns no placement pairs.
	obs := makeObs([]obsSpec{
		{id: 0, proc: 0, class: MemoryClass, rate: 3, baseline: 3, core: 0, coreHigh: true},
		{id: 1, proc: 1, class: ComputeClass, rate: 0.1, baseline: 0.1, core: 1},
	})
	pairs := SelectPairs(obs, 4)
	if len(pairs) != 0 {
		t.Errorf("pairs = %v, want none", pairs)
	}
}

func TestSelectPairsDeadband(t *testing.T) {
	// Violators whose demands are within the dead-band are not paired.
	obs := makeObs([]obsSpec{
		{id: 0, proc: 0, class: MemoryClass, rate: 3.0, baseline: 3.0, core: 0, coreHigh: true},
		{id: 1, proc: 1, class: MemoryClass, rate: 3.1, baseline: 3.1, core: 1},
	})
	pairs := SelectPairs(obs, 4)
	for _, p := range pairs {
		if !p.Equalize {
			t.Errorf("near-identical demands paired: %v", p)
		}
	}
}

func TestSelectPairsSameClassBranch(t *testing.T) {
	// All threads the same class: pair from both ends.
	var specs []obsSpec
	for i := 0; i < 6; i++ {
		specs = append(specs, obsSpec{
			id: platform.ThreadID(i), proc: i / 3, class: MemoryClass,
			rate: 1 + float64(i), baseline: 1 + float64(i), core: platform.CoreID(i),
			coreHigh: i >= 3,
		})
	}
	obs := makeObs(specs)
	pairs := SelectPairs(obs, 4)
	if len(pairs) == 0 {
		t.Fatal("same-class branch produced no pairs")
	}
	// First pair must combine the extremes.
	if pairs[0].Low != 0 || pairs[0].High != 5 {
		t.Errorf("first pair = %v, want <0,5>", pairs[0])
	}
}

func TestEqualizePairs(t *testing.T) {
	// One process, no placement violations, but a big progress gap and a
	// capability gap: an equalization pair must be produced.
	obs := makeObs([]obsSpec{
		{id: 0, proc: 0, class: ComputeClass, rate: 0.3, baseline: 0.3, instr: 1000, core: 0, coreHigh: false, coreCap: 1.2},
		{id: 1, proc: 0, class: ComputeClass, rate: 0.3, baseline: 0.3, instr: 800, core: 1, coreHigh: false, coreCap: 0.8},
		{id: 2, proc: 1, class: MemoryClass, rate: 3, baseline: 3, instr: 500, core: 2, coreHigh: true, coreCap: 1.2},
		{id: 3, proc: 1, class: MemoryClass, rate: 3, baseline: 3, instr: 500, core: 3, coreHigh: true, coreCap: 1.2},
	})
	pairs := SelectPairs(obs, 4)
	var eq []Pair
	for _, p := range pairs {
		if p.Equalize {
			eq = append(eq, p)
		}
	}
	if len(eq) != 1 {
		t.Fatalf("equalize pairs = %v, want exactly 1", pairs)
	}
	if eq[0].Low != 0 || eq[0].High != 1 {
		t.Errorf("equalize pair = %v, want ahead=0 behind=1", eq[0])
	}
}

func TestEqualizeRequiresCapabilityGap(t *testing.T) {
	// Progress gap but equal cores: no equalization swap (it would just
	// pay migration cost for nothing).
	obs := makeObs([]obsSpec{
		{id: 0, proc: 0, class: ComputeClass, rate: 0.3, baseline: 0.3, instr: 1000, core: 0, coreCap: 1.0},
		{id: 1, proc: 0, class: ComputeClass, rate: 0.3, baseline: 0.3, instr: 700, core: 1, coreCap: 1.0},
	})
	for _, p := range SelectPairs(obs, 4) {
		if p.Equalize {
			t.Errorf("equalization without capability gap: %v", p)
		}
	}
}

func TestEqualizeRequiresProgressGap(t *testing.T) {
	obs := makeObs([]obsSpec{
		{id: 0, proc: 0, class: ComputeClass, rate: 0.3, baseline: 0.3, instr: 1000, core: 0, coreCap: 1.3},
		{id: 1, proc: 0, class: ComputeClass, rate: 0.3, baseline: 0.3, instr: 995, core: 1, coreCap: 0.8},
	})
	for _, p := range SelectPairs(obs, 4) {
		if p.Equalize {
			t.Errorf("equalization for fair siblings: %v", p)
		}
	}
}

func TestSelectPairsDegenerate(t *testing.T) {
	if got := SelectPairs(makeObs(nil), 8); got != nil {
		t.Errorf("empty obs gave pairs: %v", got)
	}
	one := makeObs([]obsSpec{{id: 0, proc: 0, rate: 1, baseline: 1}})
	if got := SelectPairs(one, 8); got != nil {
		t.Errorf("single thread gave pairs: %v", got)
	}
	two := makeObs([]obsSpec{
		{id: 0, proc: 0, rate: 1, baseline: 1, core: 0},
		{id: 1, proc: 1, rate: 2, baseline: 2, core: 1},
	})
	if got := SelectPairs(two, 0); got != nil {
		t.Errorf("swapSize 0 gave pairs: %v", got)
	}
}

func TestSelectPairsDeterministic(t *testing.T) {
	specs := []obsSpec{
		{id: 0, proc: 0, class: ComputeClass, rate: 0.1, baseline: 0.1, core: 0, coreHigh: true},
		{id: 1, proc: 0, class: ComputeClass, rate: 0.1, baseline: 0.1, core: 1, coreHigh: true},
		{id: 2, proc: 1, class: MemoryClass, rate: 3, baseline: 3, core: 2},
		{id: 3, proc: 1, class: MemoryClass, rate: 3, baseline: 3, core: 3},
	}
	a := SelectPairs(makeObs(specs), 4)
	b := SelectPairs(makeObs(specs), 4)
	if len(a) != len(b) {
		t.Fatal("nondeterministic pair count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic pairs")
		}
	}
}
