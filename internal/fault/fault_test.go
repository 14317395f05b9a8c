package fault

import (
	"math"
	"strings"
	"testing"

	"dike/internal/counters"
	"dike/internal/platform"
	"dike/internal/sim"
)

func TestFaultParseClasses(t *testing.T) {
	cases := []struct {
		in   string
		want Class
	}{
		{"", 0},
		{"none", 0},
		{"all", All},
		{"dropout", Dropout},
		{"dropout,corrupt", Dropout | Corrupt},
		{" throttle , offline ", Throttle | Offline},
		{"migfail,stall,crash", MigrationFail | Stall | Crash},
	}
	for _, c := range cases {
		got, err := ParseClasses(c.in)
		if err != nil {
			t.Errorf("ParseClasses(%q) error: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseClasses(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := ParseClasses("gremlins"); err == nil {
		t.Error("unknown class accepted")
	}
	// String round-trips through ParseClasses.
	for _, c := range []Class{0, All, Dropout, Throttle | Crash} {
		back, err := ParseClasses(c.String())
		if err != nil || back != c {
			t.Errorf("round-trip %v -> %q -> %v (%v)", c, c.String(), back, err)
		}
	}
}

func TestFaultConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Rate = -1 },
		func(c *Config) { c.ThrottleFactor = 0 },
		func(c *Config) { c.ThrottleFactor = 1 },
		func(c *Config) { c.StallFrac = 0 },
		func(c *Config) { c.StallFrac = 1.5 },
		func(c *Config) { c.Window = 0 },
		func(c *Config) { c.DropoutP = -0.1 },
		func(c *Config) { c.CrashP = 2 },
		func(c *Config) { c.MigFailP = math.NaN() },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := NewInjector(Config{}); err == nil {
		t.Error("zero config accepted by NewInjector")
	}
}

// sweep queries every hook over a grid of subjects and times and returns
// a flat record of all decisions.
func sweep(in *Injector) []float64 {
	var out []float64
	d := counters.ThreadDelta{Interval: 10, Instructions: 1000, Accesses: 100, Misses: 50, Work: 100}
	for now := sim.Time(0); now < 5000; now += 250 {
		for s := 0; s < 8; s++ {
			out = append(out, in.CoreFactor(platform.CoreID(s), now))
			if in.MigrationFails(platform.ThreadID(s), platform.CoreID(s+1), now) {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
			stalled, crashed := in.ThreadFault(platform.ThreadID(s), now)
			out = append(out, b2f(stalled), b2f(crashed))
			pd, ok := in.PerturbDelta(platform.ThreadID(s), now, d)
			out = append(out, b2f(ok), pd.Misses, pd.Accesses)
		}
	}
	return out
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func TestFaultDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rate = 4 // dense enough that every class fires in the sweep
	a, _ := NewInjector(cfg)
	b, _ := NewInjector(cfg)
	da, db := sweep(a), sweep(b)
	if len(da) != len(db) {
		t.Fatalf("sweep lengths differ: %d vs %d", len(da), len(db))
	}
	for i := range da {
		av, bv := da[i], db[i]
		if av != bv && !(math.IsNaN(av) && math.IsNaN(bv)) {
			t.Fatalf("decision %d differs: %v vs %v", i, av, bv)
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats differ: %v vs %v", a.Stats(), b.Stats())
	}
	if a.Stats().Total() == 0 {
		t.Error("sweep injected nothing; determinism test is vacuous")
	}
}

func TestFaultSeedChangesSchedule(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rate = 4
	a, _ := NewInjector(cfg)
	cfg.Seed = 99
	b, _ := NewInjector(cfg)
	da, db := sweep(a), sweep(b)
	same := true
	for i := range da {
		av, bv := da[i], db[i]
		if av != bv && !(math.IsNaN(av) && math.IsNaN(bv)) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault schedules")
	}
}

func TestFaultQueryOrderIndependence(t *testing.T) {
	// Window-scoped decisions must not depend on when or how often they
	// are queried: probing one (core, window) pair cold must agree with
	// probing it after a full sweep.
	cfg := DefaultConfig()
	cfg.Rate = 4
	a, _ := NewInjector(cfg)
	b, _ := NewInjector(cfg)
	sweep(b) // b has answered thousands of queries already
	for now := sim.Time(0); now < 5000; now += 333 {
		for c := platform.CoreID(0); c < 8; c++ {
			if a.CoreFactor(c, now) != b.CoreFactor(c, now) {
				t.Fatalf("CoreFactor(%d, %v) depends on query history", c, now)
			}
		}
	}
}

func TestFaultClassGating(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Classes = 0
	cfg.DropoutP, cfg.CorruptP, cfg.ThrottleP, cfg.OfflineP = 1, 1, 1, 1
	cfg.MigFailP, cfg.StallP, cfg.CrashP = 1, 1, 1
	in, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := counters.ThreadDelta{Interval: 10, Misses: 5}
	for now := sim.Time(0); now < 3000; now += 100 {
		if f := in.CoreFactor(0, now); f != 1 {
			t.Fatalf("disabled classes still throttle: factor %v", f)
		}
		if in.MigrationFails(0, 1, now) {
			t.Fatal("disabled classes still fail migrations")
		}
		if s, c := in.ThreadFault(0, now); s || c {
			t.Fatal("disabled classes still stall/crash")
		}
		if pd, ok := in.PerturbDelta(0, now, d); !ok || pd != d {
			t.Fatal("disabled classes still perturb deltas")
		}
	}
	if in.Stats().Total() != 0 {
		t.Errorf("stats counted with all classes off: %v", in.Stats())
	}
}

func TestFaultCorruptionKinds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Classes = Corrupt
	cfg.CorruptP = 1
	in, _ := NewInjector(cfg)
	d := counters.ThreadDelta{Interval: 10, Instructions: 100, Accesses: 40, Misses: 20, Work: 10}
	var nan, inf, neg, sat int
	for now := sim.Time(1); now < 400; now++ {
		pd, ok := in.PerturbDelta(0, now, d)
		if !ok {
			t.Fatal("corruption-only injector dropped a sample")
		}
		switch {
		case math.IsNaN(pd.Misses):
			nan++
		case math.IsInf(pd.Misses, 1):
			inf++
		case pd.Misses < 0:
			neg++
		case pd.Misses >= 1e12:
			sat++
		default:
			t.Fatalf("CorruptP=1 returned a clean delta: %+v", pd)
		}
		if !math.IsNaN(pd.Misses) && !math.IsInf(pd.Misses, 0) && pd.Misses >= 0 && pd.Misses < 1e12 {
			t.Fatalf("unclassified corruption: %+v", pd)
		}
	}
	if nan == 0 || inf == 0 || neg == 0 || sat == 0 {
		t.Errorf("corruption kinds unbalanced: nan=%d inf=%d neg=%d sat=%d", nan, inf, neg, sat)
	}
	// Exactly the saturated kind survives Sane (clamping is downstream).
	if (counters.ThreadDelta{Interval: 10, Misses: 1e12, Accesses: 1e12}).Sane() != true {
		t.Error("saturated corruption should pass Sane")
	}
}

func TestFaultEpisodeStatsDedup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Classes = Offline
	cfg.OfflineP = 1
	in, _ := NewInjector(cfg)
	// Query the same core every ms across three windows: stats must count
	// three episodes, not thousands of ticks.
	for now := sim.Time(0); now < 3*cfg.Window; now++ {
		if in.CoreFactor(3, now) != 0 {
			t.Fatal("OfflineP=1 core not offline")
		}
	}
	if got := in.Stats().Offlines; got != 3 {
		t.Errorf("offline episodes = %d, want 3", got)
	}
}

func TestFaultStallWindowShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Classes = Stall
	cfg.StallP = 1
	cfg.StallFrac = 0.5
	in, _ := NewInjector(cfg)
	// With StallP=1 the thread stalls in every window, but only during
	// the first StallFrac of it.
	half := sim.Time(float64(cfg.Window) * cfg.StallFrac)
	for _, tc := range []struct {
		now  sim.Time
		want bool
	}{{0, true}, {half - 1, true}, {half, false}, {cfg.Window - 1, false}, {cfg.Window, true}} {
		stalled, crashed := in.ThreadFault(7, tc.now)
		if crashed {
			t.Fatalf("stall-only injector crashed a thread at %v", tc.now)
		}
		if stalled != tc.want {
			t.Errorf("ThreadFault at %v: stalled=%v, want %v", tc.now, stalled, tc.want)
		}
	}
}

func TestFaultRateZeroIsQuiet(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rate = 0
	in, _ := NewInjector(cfg)
	if got := sweep(in); got == nil {
		t.Fatal("sweep returned nothing")
	}
	if in.Stats().Total() != 0 {
		t.Errorf("Rate=0 injected faults: %v", in.Stats())
	}
}

// TestFaultScenarios: the per-class scenarios the harness runs, one per
// name ClassNames lists, are seven distinct classes that make up All.
func TestFaultScenarios(t *testing.T) {
	names := strings.Split(ClassNames(), ",")
	if len(names) != 7 {
		t.Fatalf("ClassNames() lists %d classes, want 7", len(names))
	}
	var union Class
	for _, name := range names {
		c, err := ParseClasses(name)
		if err != nil || c == 0 || union&c != 0 {
			t.Errorf("class %q parses to %v, %v (union so far %v)", name, c, err, union)
		}
		union |= c
	}
	if union != All {
		t.Errorf("per-class scenarios union = %v, want all", union)
	}
}

func TestFaultStatsString(t *testing.T) {
	if (Stats{}).String() != "none" {
		t.Errorf("empty stats = %q", (Stats{}).String())
	}
	s := Stats{Dropouts: 2, Crashes: 1}
	if s.Total() != 3 {
		t.Errorf("Total = %d, want 3", s.Total())
	}
	if got := s.String(); got != "dropout 2, crash 1" {
		t.Errorf("String = %q", got)
	}
}
