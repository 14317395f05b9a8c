package core

import (
	"context"
	"testing"

	"dike/internal/platform"
	"dike/internal/platform/platformtest"
	"dike/internal/sim"
	"dike/internal/workload"
)

// newDike is New for a configuration the test knows to be valid.
func newDike(t *testing.T, p platform.Platform, cfg Config) *Dike {
	t.Helper()
	d, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runDike builds WLn at the given scale, runs Dike with cfg, and returns
// the policy and machine after completion.
func runDike(t *testing.T, wlN int, scale float64, cfg Config) (*Dike, *platformtest.Machine) {
	t.Helper()
	m := platformtest.NewMachine(platformtest.DefaultConfig())
	if _, err := workload.MustTable2(wlN).Build(m, workload.BuildOptions{Seed: 42, Scale: scale}); err != nil {
		t.Fatal(err)
	}
	cfg.PlacementSeed = 42
	d, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(m, d, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return d, m
}

func TestNewDefaults(t *testing.T) {
	m := platformtest.NewMachine(platformtest.DefaultConfig())
	d, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d.QuantaLength() != 500 || d.swapSize != 8 {
		t.Errorf("defaults = ⟨%d,%d⟩", d.swapSize, d.QuantaLength())
	}
	if d.Name() != "dike" {
		t.Errorf("name = %q", d.Name())
	}
	if _, err := New(m, Config{SwapSize: 5}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestDikeNames(t *testing.T) {
	m := platformtest.NewMachine(platformtest.DefaultConfig())
	for goal, want := range map[AdaptationGoal]string{
		AdaptNone:        "dike",
		AdaptFairness:    "dike-af",
		AdaptPerformance: "dike-ap",
	} {
		d := newDike(t, m, Config{Goal: goal})
		if d.Name() != want {
			t.Errorf("goal %v name = %q, want %q", goal, d.Name(), want)
		}
	}
}

func TestDikeEndToEnd(t *testing.T) {
	d, m := runDike(t, 1, 0.15, DefaultConfig())
	if !m.Done() {
		t.Fatal("workload did not finish")
	}
	if m.SwapCount() == 0 {
		t.Error("Dike never swapped on an unfair workload")
	}
	h := d.History()
	if len(h) == 0 {
		t.Fatal("no history recorded")
	}
	for i, rec := range h {
		if rec.SwapSize != 8 || rec.Quanta != 500 {
			t.Fatalf("non-adaptive run changed parameters at record %d: %+v", i, rec)
		}
		if rec.Accepted > rec.Candidates {
			t.Fatalf("accepted %d > candidates %d", rec.Accepted, rec.Candidates)
		}
	}
}

func TestDikePredictionBookkeeping(t *testing.T) {
	d, _ := runDike(t, 1, 0.15, DefaultConfig())
	ps := d.PredictionStats()
	if len(ps.PerThread) == 0 {
		t.Fatal("no prediction stats")
	}
	lo, avg, hi := ps.MinAvgMax()
	if lo > avg || avg > hi {
		t.Errorf("min/avg/max disordered: %v %v %v", lo, avg, hi)
	}
	if lo < -errClamp || hi > errClamp {
		t.Errorf("errors escaped clamp: %v %v", lo, hi)
	}
	series := d.ErrorSeries()
	if len(series) == 0 {
		t.Fatal("no error series")
	}
	for i := 1; i < len(series); i++ {
		if series[i].Time <= series[i-1].Time {
			t.Fatal("error series not strictly increasing in time")
		}
	}
}

func TestDikeImprovesFairnessOverNoScheduling(t *testing.T) {
	// Compare per-process runtime CVs: Dike vs a frozen placement.
	runtimes := func(policy func(m *platformtest.Machine) sim.Policy) (float64, *platformtest.Machine) {
		m := platformtest.NewMachine(platformtest.DefaultConfig())
		inst, err := workload.MustTable2(1).Build(m, workload.BuildOptions{Seed: 42, Scale: 0.15})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := sim.NewEngine(m, policy(m), sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Mean CV across main benchmarks.
		sum, n := 0.0, 0
		for bi, b := range inst.Workload.Benchmarks {
			if b.Extra {
				continue
			}
			var times []float64
			for _, id := range inst.ThreadsOf(bi) {
				ft, _ := m.Finished(id)
				times = append(times, float64(ft))
			}
			mean, sd := 0.0, 0.0
			for _, x := range times {
				mean += x
			}
			mean /= float64(len(times))
			for _, x := range times {
				sd += (x - mean) * (x - mean)
			}
			cv := 0.0
			if mean > 0 {
				cv = (sd / float64(len(times)))
				cv = cv / (mean * mean)
			}
			sum += cv
			n++
		}
		return sum / float64(n), m
	}
	dikeCV, _ := runtimes(func(m *platformtest.Machine) sim.Policy {
		return newDike(t, m, Config{PlacementSeed: 42})
	})
	frozenCV, _ := runtimes(func(m *platformtest.Machine) sim.Policy {
		return frozenPolicy{m: m}
	})
	if dikeCV >= frozenCV {
		t.Errorf("Dike CV %v not below frozen-placement CV %v", dikeCV, frozenCV)
	}
}

// frozenPolicy mimics the CFS baseline without importing sched's CFS (it
// lives here to avoid test-only coupling).
type frozenPolicy struct {
	m      *platformtest.Machine
	placed bool
}

func (f frozenPolicy) Name() string           { return "frozen" }
func (f frozenPolicy) QuantaLength() sim.Time { return 1000 }
func (f frozenPolicy) Quantum(now sim.Time) error {
	placeOnce(f.m, now)
	return nil
}

var placedMachines = map[*platformtest.Machine]bool{}

func placeOnce(m *platformtest.Machine, _ sim.Time) {
	if placedMachines[m] {
		return
	}
	placedMachines[m] = true
	// Simple deterministic shuffle-free spread matching SpreadPlacement's
	// seed-42 layout closely enough for a fairness comparison: interleave
	// threads across cores by a fixed stride.
	ids := m.Threads()
	n := m.Topology().NumCores()
	rng := sim.NewRNG(42)
	idx := make([]int, len(ids))
	for i := range idx {
		idx[i] = i
	}
	rng.Shuffle(idx)
	for i, t := range idx {
		if err := m.Place(ids[t], platform.CoreID(i%n)); err != nil {
			panic(err)
		}
	}
}

func TestDikeAdaptiveChangesParameters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Goal = AdaptFairness
	d, _ := runDike(t, 7, 0.15, cfg) // UC workload: strong adaptation signal
	changed := false
	for _, rec := range d.History() {
		if rec.SwapSize != 8 || rec.Quanta != 500 {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("adaptive run never changed parameters")
	}
}

func TestDikeQuiescesOnBalancedWorkload(t *testing.T) {
	// After convergence a balanced workload should need only sporadic
	// swaps: the bulk of quanta perform none.
	d, m := runDike(t, 1, 0.2, DefaultConfig())
	h := d.History()
	idle := 0
	for _, rec := range h {
		if rec.Accepted == 0 {
			idle++
		}
	}
	// Placement converges early; afterwards only slow equalization
	// rotation remains, so a clear majority of pair capacity stays
	// unused and a healthy share of quanta perform no swap at all.
	if frac := float64(idle) / float64(len(h)); frac < 0.25 {
		t.Errorf("only %.0f%% of quanta idle; churn too high (swaps=%d)", frac*100, m.SwapCount())
	}
	if cap := 4 * len(h); m.SwapCount() > cap/2 {
		t.Errorf("swaps = %d, more than half of pair capacity %d", m.SwapCount(), cap)
	}
}

func TestDikeDeterministic(t *testing.T) {
	d1, m1 := runDike(t, 3, 0.1, DefaultConfig())
	d2, m2 := runDike(t, 3, 0.1, DefaultConfig())
	if m1.SwapCount() != m2.SwapCount() {
		t.Errorf("swap counts diverged: %d vs %d", m1.SwapCount(), m2.SwapCount())
	}
	if len(d1.History()) != len(d2.History()) {
		t.Error("history lengths diverged")
	}
}

func TestIPCMetricDegradesPlacement(t *testing.T) {
	// The paper argues memory access rate beats IPC as the contention
	// metric on heterogeneous cores (§III-A). With IPC, a fast core
	// inflates the metric regardless of memory demand, so placement
	// decisions chase the wrong signal.
	cfg := DefaultConfig()
	_, mRate := runDike(t, 13, 0.15, cfg)
	cfg.UseIPCMetric = true
	_, mIPC := runDike(t, 13, 0.15, cfg)

	// IPC ranks compute threads above memory threads (they retire more
	// instructions), so the placement rule hands fast cores to the
	// threads that need bandwidth least; the memory apps' completion —
	// and with it the workload makespan — suffers.
	makespan := func(m *platformtest.Machine) sim.Time {
		var last sim.Time
		for _, id := range m.Threads() {
			if ft, ok := m.Finished(id); ok && ft > last {
				last = ft
			}
		}
		return last
	}
	if mr, mi := makespan(mRate), makespan(mIPC); mr >= mi {
		t.Errorf("access-rate makespan %v not below IPC makespan %v", mr, mi)
	}

	fairness := func(m *platformtest.Machine) float64 {
		// Mean per-benchmark runtime CV over the first four benchmarks
		// (8 threads each, ids 0..31).
		sum := 0.0
		for b := 0; b < 4; b++ {
			var times []float64
			for i := 0; i < 8; i++ {
				ft, ok := m.Finished(platform.ThreadID(b*8 + i))
				if !ok {
					t.Fatal("unfinished thread")
				}
				times = append(times, float64(ft))
			}
			mean, ss := 0.0, 0.0
			for _, x := range times {
				mean += x
			}
			mean /= 8
			for _, x := range times {
				ss += (x - mean) * (x - mean)
			}
			sum += (ss / 8) / (mean * mean)
		}
		return 1 - sum/4 // higher = fairer (Eqn 4 flavour, squared CV)
	}
	// Eqn 4 fairness stays comparable either way (within-process
	// equalization doesn't depend on the metric); just sanity-check both
	// runs stayed fair.
	if fr, fi := fairness(mRate), fairness(mIPC); fr < 0.9 || fi < 0.9 {
		t.Errorf("fairness collapsed: rate %v, ipc %v", fr, fi)
	}
}
