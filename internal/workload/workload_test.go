package workload

import (
	"math"
	"strings"
	"testing"

	"dike/internal/machine"
	"dike/internal/platform"
	"dike/internal/sim"
)

func newMachine(t *testing.T) *machine.Machine {
	t.Helper()
	m, err := machine.New(machine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testWorkload() *Workload {
	cat := Profiles()
	return &Workload{
		Name: "test",
		Benchmarks: []Benchmark{
			{Profile: cat["jacobi"], Threads: 4},
			{Profile: cat["lavaMD"], Threads: 4},
			{Profile: cat["kmeans"], Threads: 2, Extra: true},
		},
	}
}

func TestWorkloadValidate(t *testing.T) {
	if err := testWorkload().Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	w := testWorkload()
	w.Name = ""
	if err := w.Validate(); err == nil {
		t.Error("empty name accepted")
	}
	w = testWorkload()
	w.Benchmarks = nil
	if err := w.Validate(); err == nil {
		t.Error("no benchmarks accepted")
	}
	w = testWorkload()
	w.Benchmarks[0].Threads = 0
	if err := w.Validate(); err == nil {
		t.Error("zero threads accepted")
	}
	w = testWorkload()
	w.Benchmarks[0].Profile = nil
	if err := w.Validate(); err == nil {
		t.Error("nil profile accepted")
	}
}

func TestWorkloadTotals(t *testing.T) {
	if got := testWorkload().TotalThreads(); got != 10 {
		t.Errorf("TotalThreads = %d, want 10", got)
	}
}

func TestWorkloadType(t *testing.T) {
	cat := Profiles()
	cases := []struct {
		mem, comp int
		want      Type
	}{
		{2, 2, Balanced},
		{1, 3, UnbalancedCompute},
		{3, 1, UnbalancedMemory},
	}
	memApps := []string{"jacobi", "streamcluster", "needle"}
	compApps := []string{"lavaMD", "srad", "hotspot"}
	for _, c := range cases {
		w := &Workload{Name: "t"}
		for i := 0; i < c.mem; i++ {
			w.Benchmarks = append(w.Benchmarks, Benchmark{Profile: cat[memApps[i]], Threads: 8})
		}
		for i := 0; i < c.comp; i++ {
			w.Benchmarks = append(w.Benchmarks, Benchmark{Profile: cat[compApps[i]], Threads: 8})
		}
		// The Extra kmeans must not affect typing.
		w.Benchmarks = append(w.Benchmarks, Benchmark{Profile: cat["kmeans"], Threads: 8, Extra: true})
		if got := w.Type(); got != c.want {
			t.Errorf("%dM/%dC type = %v, want %v", c.mem, c.comp, got, c.want)
		}
	}
}

func TestTypeString(t *testing.T) {
	if Balanced.String() != "B" || UnbalancedCompute.String() != "UC" || UnbalancedMemory.String() != "UM" {
		t.Error("Type strings wrong")
	}
}

func TestBuildRegistersEverything(t *testing.T) {
	m := newMachine(t)
	w := testWorkload()
	inst, err := w.Build(m, BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Threads()) != 10 {
		t.Errorf("machine has %d threads, want 10", len(m.Threads()))
	}
	if len(inst.Threads) != 10 {
		t.Errorf("instance has %d threads", len(inst.Threads))
	}
	// Thread ids are dense and benchmark-ordered.
	for i, ti := range inst.Threads {
		if int(ti.ID) != i {
			t.Fatalf("thread %d has id %d", i, ti.ID)
		}
	}
	if got := inst.ThreadsOf(0); len(got) != 4 {
		t.Errorf("jacobi threads = %v", got)
	}
	if got := inst.Threads[5].Bench; got != 1 {
		t.Errorf("thread 5 in benchmark %d, want 1", got)
	}
	// BenchOf on the machine agrees.
	b, err := m.BenchOf(5)
	if err != nil || b != 1 {
		t.Errorf("machine BenchOf = %v, %v", b, err)
	}
}

func TestBuildRejectsDirtyMachine(t *testing.T) {
	m := newMachine(t)
	if _, err := testWorkload().Build(m, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := testWorkload().Build(m, BuildOptions{}); err == nil {
		t.Error("second Build on same machine accepted")
	}
}

func TestBuildScale(t *testing.T) {
	m := newMachine(t)
	w := testWorkload()
	if _, err := w.Build(m, BuildOptions{Scale: 0.5}); err != nil {
		t.Fatal(err)
	}
	// Run one thread standalone at both scales and compare runtimes.
	jacobiWork := w.Benchmarks[0].Profile.TotalWork()
	// The scaled program's total work must be half the profile's.
	for _, id := range m.Threads()[:1] {
		if err := m.Place(id, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Read the registered program's total work back as work done over
	// progress, then run to completion.
	for _, id := range m.Threads() {
		if err := m.Place(id, platform.CoreID(int(id)%40)); err != nil {
			t.Fatal(err)
		}
	}
	now := sim.Time(0)
	for ; now < 100; now++ {
		m.Step(now, 1)
	}
	if got := m.Sample(now).Threads[0].Work / m.Progress(0); math.Abs(got-jacobiWork/2) > 1 {
		t.Errorf("scaled work = %v, want %v", got, jacobiWork/2)
	}
	for !m.Done() && now < 600000 {
		m.Step(now, 1)
		now++
	}
	if !m.Done() {
		t.Fatal("scaled workload did not finish")
	}
	if _, err := w.Build(newMachine(t), BuildOptions{Scale: -1}); err == nil {
		t.Error("negative scale accepted")
	}
}

func TestBuildBarrierGroups(t *testing.T) {
	m := newMachine(t)
	cat := Profiles()
	w := &Workload{Name: "km", Benchmarks: []Benchmark{{Profile: cat["kmeans"], Threads: 4}}}
	if _, err := w.Build(m, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	// Verify coupling: place two threads on very different cores and
	// check they stay within one barrier interval.
	ids := m.Threads()
	// Table I lays out the 20 fast lanes first, then the slow ones.
	m.Place(ids[0], 0)
	m.Place(ids[1], 20)
	m.Place(ids[2], 21)
	m.Place(ids[3], 22)
	for now := sim.Time(0); now < 3000; now++ {
		m.Step(now, 1)
	}
	s := m.Sample(3000)
	w0 := s.Threads[0].Work
	w1 := s.Threads[1].Work
	if w0-w1 > cat["kmeans"].BarrierInterval+1 {
		t.Errorf("barrier not enforced: %v vs %v", w0, w1)
	}
}

func TestTable2Definitions(t *testing.T) {
	if _, err := Table2(0); err == nil {
		t.Error("WL0 accepted")
	}
	if _, err := Table2(17); err == nil {
		t.Error("WL17 accepted")
	}
	wantTypes := map[int]Type{
		1: Balanced, 2: Balanced, 3: Balanced, 4: Balanced, 5: Balanced, 6: Balanced,
		7: UnbalancedCompute, 8: UnbalancedCompute, 9: UnbalancedCompute,
		10: UnbalancedCompute, 11: UnbalancedCompute,
		12: UnbalancedMemory, 13: UnbalancedMemory, 14: UnbalancedMemory,
		15: UnbalancedMemory, 16: UnbalancedMemory,
	}
	for n := 1; n <= NumWorkloads; n++ {
		w, err := Table2(n)
		if err != nil {
			t.Fatalf("WL%d: %v", n, err)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("WL%d invalid: %v", n, err)
		}
		if got := w.Type(); got != wantTypes[n] {
			t.Errorf("WL%d type = %v, want %v", n, got, wantTypes[n])
		}
		if got := w.TotalThreads(); got != 40 {
			t.Errorf("WL%d threads = %d, want 40", n, got)
		}
		// Exactly one Extra benchmark: kmeans.
		extras := 0
		for _, b := range w.Benchmarks {
			if b.Extra {
				extras++
				if b.Profile.Name != "kmeans" {
					t.Errorf("WL%d extra is %s", n, b.Profile.Name)
				}
			}
		}
		if extras != 1 {
			t.Errorf("WL%d has %d extras", n, extras)
		}
		// Main apps are distinct.
		seen := map[string]bool{}
		for _, b := range w.Benchmarks {
			if b.Extra {
				continue
			}
			if seen[b.Profile.Name] {
				t.Errorf("WL%d repeats %s", n, b.Profile.Name)
			}
			seen[b.Profile.Name] = true
		}
	}
	if len(AllTable2()) != 16 {
		t.Error("AllTable2 size wrong")
	}
	apps, err := Table2Apps(6)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 8 names wl6's apps: SRAD, Heartwall, Jacobi and Needle.
	want := map[string]bool{"jacobi": true, "needle": true, "heartwall": true, "srad": true}
	for _, a := range apps {
		if !want[a] {
			t.Errorf("WL6 contains %s, not in Fig 8's list", a)
		}
	}
	if _, err := Table2Apps(0); err == nil {
		t.Error("Table2Apps(0) accepted")
	}
}

func TestGenerator(t *testing.T) {
	rng := sim.NewRNG(1)
	w, err := Generate(GeneratorSpec{MemoryApps: 2, IncludeKmeans: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Type() != Balanced {
		t.Errorf("2M/2C generated type = %v", w.Type())
	}
	if w.TotalThreads() != 40 {
		t.Errorf("threads = %d", w.TotalThreads())
	}
	// Too many distinct memory apps requested.
	if _, err := Generate(GeneratorSpec{Benchmarks: 8, MemoryApps: 8}, rng); err == nil {
		t.Error("impossible draw accepted")
	}
	// Repeats allowed makes it possible.
	if _, err := Generate(GeneratorSpec{Benchmarks: 8, MemoryApps: 8, AllowRepeats: true}, rng); err != nil {
		t.Errorf("repeats draw failed: %v", err)
	}
	// Random memory count stays in range.
	for i := 0; i < 20; i++ {
		w, err := Generate(GeneratorSpec{MemoryApps: -1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if w.TotalThreads() != 32 {
			t.Errorf("threads = %d", w.TotalThreads())
		}
	}
	if _, err := Generate(GeneratorSpec{Benchmarks: -1}, rng); err == nil {
		t.Error("negative benchmarks accepted")
	}
}

// TestThreadBound: a workload holds at most MaxThreads threads, and
// Generate refuses a larger one before drawing anything.
func TestThreadBound(t *testing.T) {
	rng := sim.NewRNG(1)
	w, err := Generate(GeneratorSpec{ThreadsPer: MaxThreads / 4}, rng)
	if err != nil || w.TotalThreads() != MaxThreads {
		t.Fatalf("4 x %d threads: %v", MaxThreads/4, err)
	}
	for _, spec := range []GeneratorSpec{
		{ThreadsPer: MaxThreads / 4, IncludeKmeans: true},
		{ThreadsPer: 20000},
		{Benchmarks: math.MaxInt, ThreadsPer: 1, AllowRepeats: true},
		{Benchmarks: 2, ThreadsPer: math.MaxInt},
	} {
		if _, err := Generate(spec, rng); err == nil || !strings.Contains(err.Error(), "16384 threads") {
			t.Errorf("Generate(%+v) = %v, want the thread bound", spec, err)
		}
	}
	w.Benchmarks = append(w.Benchmarks, Benchmark{Profile: w.Benchmarks[0].Profile, Threads: 1})
	if err := w.Validate(); err == nil {
		t.Errorf("workload of %d threads validated", w.TotalThreads())
	}
}
