package metrics

import (
	"math"
	"testing"

	"dike/internal/machine"
	"dike/internal/platform"
	"dike/internal/sim"
	"dike/internal/workload"
)

// finishedMachine runs a small two-benchmark workload to completion with
// a fixed placement and returns the machine plus instance.
func finishedMachine(t *testing.T) (*machine.Machine, *workload.Instance) {
	t.Helper()
	m, err := machine.New(machine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cat := workload.Profiles()
	w := &workload.Workload{
		Name: "mtest",
		Benchmarks: []workload.Benchmark{
			{Profile: cat["jacobi"], Threads: 4},
			{Profile: cat["lavaMD"], Threads: 4},
			{Profile: cat["kmeans"], Threads: 2, Extra: true},
		},
	}
	inst, err := w.Build(m, workload.BuildOptions{Seed: 1, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range m.Threads() {
		if err := m.Place(id, platform.CoreID(i*2%40)); err != nil {
			t.Fatal(err)
		}
	}
	now := sim.Time(0)
	for !m.Done() {
		if now > 600000 {
			t.Fatal("workload did not finish")
		}
		m.Step(now, 1)
		now++
	}
	return m, inst
}

func TestCollect(t *testing.T) {
	m, inst := finishedMachine(t)
	res, err := Collect(m, inst, "test-policy")
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "test-policy" || res.Workload != "mtest" {
		t.Error("identification fields wrong")
	}
	if len(res.Benches) != 3 {
		t.Fatalf("benches = %d, want 3", len(res.Benches))
	}
	if !res.Benches[2].Extra {
		t.Error("kmeans not marked Extra")
	}
	if res.Fairness <= 0 || res.Fairness > 1 {
		t.Errorf("fairness = %v, outside (0,1]", res.Fairness)
	}
	// AvgTime is the mean of the two MAIN bench times.
	want := (res.Benches[0].Time + res.Benches[1].Time) / 2
	if math.Abs(res.AvgTime-want) > 1e-9 {
		t.Errorf("AvgTime = %v, want %v", res.AvgTime, want)
	}
	// Makespan is at least every bench time.
	for _, b := range res.Benches {
		if res.Makespan < b.Time {
			t.Errorf("makespan %v below bench %s time %v", res.Makespan, b.Name, b.Time)
		}
		if b.Time < b.MeanThreadTime {
			t.Errorf("%s: max %v below mean %v", b.Name, b.Time, b.MeanThreadTime)
		}
		if len(b.ThreadTimes) == 0 {
			t.Errorf("%s has no thread times", b.Name)
		}
	}
	if res.Swaps != 0 || res.Migrations != 0 {
		t.Error("static run recorded scheduling actions")
	}
}

func TestCollectUnfinished(t *testing.T) {
	m, err := machine.New(machine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cat := workload.Profiles()
	w := &workload.Workload{Name: "u", Benchmarks: []workload.Benchmark{{Profile: cat["jacobi"], Threads: 2}}}
	inst, err := w.Build(m, workload.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(m, inst, "p"); err == nil {
		t.Error("unfinished run collected")
	}
}

func TestFairnessEquation4(t *testing.T) {
	// Hand-build a result: with per-benchmark thread-time CVs cv1, cv2,
	// Fairness = 1 - (cv1+cv2)/2.
	m, inst := finishedMachine(t)
	res, err := Collect(m, inst, "p")
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - (res.Benches[0].CV+res.Benches[1].CV)/2
	if math.Abs(res.Fairness-want) > 1e-12 {
		t.Errorf("Fairness = %v, want %v (Eqn 4 over main benches)", res.Fairness, want)
	}
}

func TestImprovementAndSpeedup(t *testing.T) {
	base := &RunResult{Fairness: 0.5, Makespan: 200, AvgTime: 100}
	res := &RunResult{Fairness: 0.75, Makespan: 160, AvgTime: 80}
	if got := FairnessImprovement(res, base); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("fairness improvement = %v, want 0.5", got)
	}
	if got := Speedup(res, base); math.Abs(got-1.25) > 1e-12 {
		t.Errorf("speedup = %v, want 1.25", got)
	}
	// Degenerate denominators.
	if FairnessImprovement(res, &RunResult{Fairness: 0}) != 0 {
		t.Error("zero-fairness base not handled")
	}
	if Speedup(&RunResult{Makespan: 0}, base) != 0 {
		t.Error("zero makespan not handled")
	}
}

func TestAggregates(t *testing.T) {
	fracs := []float64{0.1, 0.2, 0.3}
	if got := MeanImprovement(fracs); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("mean improvement = %v", got)
	}
	geo := GeoMeanImprovement(fracs)
	// Geometric mean of ratios 1.1, 1.2, 1.3 minus 1 ≈ 0.1972.
	if math.Abs(geo-0.19721) > 1e-3 {
		t.Errorf("geo improvement = %v", geo)
	}
	if GeoMeanImprovement(nil) != 0 {
		t.Error("empty geo improvement not 0")
	}
	// Geo mean is below arithmetic mean for non-constant input.
	if geo >= MeanImprovement(fracs) {
		t.Error("geo >= arith for varied input")
	}
}
