package workload

import (
	"testing"
	"testing/quick"

	"dike/internal/machine"
	"dike/internal/sim"
)

func validProfile() *Profile {
	return &Profile{
		Name:  "test",
		Class: MemoryIntensive,
		Phases: []Phase{
			{Work: 100, AccessesPerWork: 10, MissRatio: 0.5},
			{Work: 50, AccessesPerWork: 2, MissRatio: 0.1},
		},
	}
}

func TestProfileValidate(t *testing.T) {
	if err := validProfile().Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	bad := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.Phases = nil },
		func(p *Profile) { p.Phases[0].Work = 0 },
		func(p *Profile) { p.Phases[0].AccessesPerWork = -1 },
		func(p *Profile) { p.Phases[0].MissRatio = 1.5 },
		func(p *Profile) { p.BurstEvery = -1 },
		func(p *Profile) { p.BurstEvery = 10; p.BurstLen = 20 },
		func(p *Profile) { p.BurstMissRatio = 2 },
		func(p *Profile) { p.NoiseEps = 1 },
		func(p *Profile) { p.BarrierInterval = -1 },
	}
	for i, mut := range bad {
		p := validProfile()
		mut(p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestProfileTotalWork(t *testing.T) {
	if got := validProfile().TotalWork(); got != 150 {
		t.Errorf("TotalWork = %v, want 150", got)
	}
}

func TestProgramPhaseLookup(t *testing.T) {
	p := validProfile()
	prog := p.Instantiate(1)
	if prog.TotalWork() != 150 {
		t.Errorf("TotalWork = %v", prog.TotalWork())
	}
	d1 := demandAt(prog, 10, 0)
	if d1.AccessesPerWork != 10 || d1.MissRatio != 0.5 {
		t.Errorf("phase 1 demand = %+v", d1)
	}
	d2 := demandAt(prog, 120, 0)
	if d2.AccessesPerWork != 2 || d2.MissRatio != 0.1 {
		t.Errorf("phase 2 demand = %+v", d2)
	}
	// Beyond total work: clamp to last phase.
	d3 := demandAt(prog, 1e9, 0)
	if d3.AccessesPerWork != 2 {
		t.Errorf("overrun demand = %+v", d3)
	}
}

func TestProgramDeterministic(t *testing.T) {
	p := validProfile()
	p.NoiseEps = 0.2
	p.BurstEvery = 500
	p.BurstLen = 50
	p.BurstAccesses = 20
	p.BurstMissRatio = 0.9
	a := p.Instantiate(42)
	b := p.Instantiate(42)
	for now := sim.Time(0); now < 2000; now += 37 {
		da := demandAt(a, float64(now%150), now)
		db := demandAt(b, float64(now%150), now)
		if da != db {
			t.Fatalf("same seed diverged at %v", now)
		}
	}
}

func TestProgramSeedsDecorrelated(t *testing.T) {
	p := validProfile()
	p.BurstEvery = 500
	p.BurstLen = 50
	p.BurstAccesses = 20
	p.BurstMissRatio = 0.9
	a := p.Instantiate(1)
	b := p.Instantiate(2)
	diff := 0
	for now := sim.Time(0); now < 5000; now += 25 {
		if demandAt(a, 10, now) != demandAt(b, 10, now) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical burst phases")
	}
}

func TestProgramBurstsChangeDemand(t *testing.T) {
	p := validProfile()
	p.BurstEvery = 100
	p.BurstLen = 30
	p.BurstAccesses = 99
	p.BurstMissRatio = 0.9
	prog := p.Instantiate(7)
	sawBurst := false
	for now := sim.Time(0); now < 400; now++ {
		if demandAt(prog, 10, now).AccessesPerWork == 99 {
			sawBurst = true
			break
		}
	}
	if !sawBurst {
		t.Error("no burst observed within four periods")
	}
}

func TestProgramNoiseBounded(t *testing.T) {
	f := func(seed uint64, nowRaw uint32) bool {
		p := validProfile()
		p.NoiseEps = 0.2
		prog := p.Instantiate(seed)
		d := demandAt(prog, 10, sim.Time(nowRaw))
		if d.MissRatio < 0 || d.MissRatio > 1 {
			return false
		}
		// Within +-20% of the phase value.
		return d.AccessesPerWork >= 10*0.8-1e-9 && d.AccessesPerWork <= 10*1.2+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBuiltinProfiles(t *testing.T) {
	profiles := Profiles()
	if len(profiles) != 10 {
		t.Fatalf("catalogue has %d profiles, want 10", len(profiles))
	}
	memApps := map[string]bool{"jacobi": true, "streamcluster": true, "needle": true, "stream_omp": true, "kmeans": true}
	for name, p := range profiles {
		if err := p.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
		if got := p.Class == MemoryIntensive; got != memApps[name] {
			t.Errorf("%s class = %v, want memory=%v", name, p.Class, memApps[name])
		}
		if p.TotalWork() < 100_000 || p.TotalWork() > 300_000 {
			t.Errorf("%s total work = %v, outside the calibrated range", name, p.TotalWork())
		}
	}
	// Steady-state miss ratios must respect the 10% classification
	// boundary (warm-up phase excluded).
	for name, p := range profiles {
		steady := p.Phases[1]
		if p.Class == MemoryIntensive && steady.MissRatio <= 0.10 {
			t.Errorf("%s is M but steady miss ratio %v <= 0.10", name, steady.MissRatio)
		}
		if p.Class == ComputeIntensive && steady.MissRatio > 0.10 {
			t.Errorf("%s is C but steady miss ratio %v > 0.10", name, steady.MissRatio)
		}
	}
	if profiles["kmeans"].BarrierInterval <= 0 {
		t.Error("kmeans must be barrier-coupled")
	}
}

func TestAppNamesMatchCatalogue(t *testing.T) {
	names := AppNames()
	profiles := Profiles()
	if len(names) != len(profiles) {
		t.Fatalf("AppNames has %d entries, catalogue %d", len(names), len(profiles))
	}
	for _, n := range names {
		if _, ok := profiles[n]; !ok {
			t.Errorf("AppNames lists unknown app %q", n)
		}
	}
}

func TestLookupProfile(t *testing.T) {
	if _, err := LookupProfile("jacobi"); err != nil {
		t.Errorf("jacobi lookup failed: %v", err)
	}
	if _, err := LookupProfile("nope"); err == nil {
		t.Error("unknown app lookup succeeded")
	}
}

// demandAt returns prog's demand at (work, now) without its window.
func demandAt(prog machine.Program, work float64, now sim.Time) machine.Demand {
	d, _ := prog.DemandAt(work, now)
	return d
}
