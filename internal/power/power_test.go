package power

import (
	"testing"

	"dike/internal/platform"
)

// govTopo builds a 2-socket topology of one perf + one eff core each
// (no SMT), so core ids are: socket 0 → perf 0, eff 1; socket 1 →
// perf 2, eff 3. perf declares 4 DVFS levels, eff 3.
func govTopo(t *testing.T) (*platform.Topology, []int) {
	t.Helper()
	spec := &platform.MachineSpec{
		CoreTypes: []platform.CoreTypeSpec{
			{Name: "perf", Speed: 2, SMTWays: 1, DVFS: []float64{1, 0.85, 0.7, 0.55}},
			{Name: "eff", Speed: 1, SMTWays: 1, DVFS: []float64{1, 0.8, 0.6}},
		},
		Sockets: []platform.SocketSpec{
			{Cores: []platform.CoreGroup{{Type: "perf", Physical: 1}, {Type: "eff", Physical: 1}},
				Mem: platform.MemSpec{Capacity: 10, BaseLatency: 0.008, MaxUtil: 0.96}},
			{Cores: []platform.CoreGroup{{Type: "perf", Physical: 1}, {Type: "eff", Physical: 1}},
				Mem: platform.MemSpec{Capacity: 10, BaseLatency: 0.008, MaxUtil: 0.96}},
		},
		Distance: [][]float64{{0, 1}, {1, 0}},
	}
	topo, err := platform.BuildMachineTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	return topo, []int{4, 3}
}

// fakeAct records every actuation.
type fakeAct struct{ acts []Action }

func (a *fakeAct) SetDVFS(c platform.CoreID, l int) error {
	a.acts = append(a.acts, Action{Core: c, Level: l})
	return nil
}

func (a *fakeAct) reset() []Action {
	out := a.acts
	a.acts = nil
	return out
}

type fakeFeed struct {
	k  platform.CoreKind
	ok bool
}

func (f fakeFeed) LimitingKind() (platform.CoreKind, bool) { return f.k, f.ok }

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"ungoverned zero value", Config{}, true},
		{"unknown governor", Config{Governor: "turbo"}, false},
		{"ondemand without cap", Config{Governor: GovernorOndemand}, false},
		{"ondemand with cap", Config{Governor: GovernorOndemand, CapWatts: 20}, true},
		{"fairness without cap", Config{Governor: GovernorFairness}, false},
		{"fairness with cap", Config{Governor: GovernorFairness, CapWatts: 20}, true},
		{"thermal defaults", Config{Governor: GovernorThermal}, true},
		{"thermal cool above hot", Config{Governor: GovernorThermal, ThermalHot: 50, ThermalCool: 60}, false},
		{"negative adapt_every", Config{Governor: GovernorThermal, AdaptEvery: -1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("expected error, got nil")
			}
		})
	}
}

func TestWithDefaults(t *testing.T) {
	d := Config{Governor: GovernorThermal}.WithDefaults()
	if d.AdaptEvery != 4 {
		t.Errorf("AdaptEvery default = %d, want 4", d.AdaptEvery)
	}
	if d.ThermalR <= 0 || d.ThermalAlpha <= 0 || d.ThermalCool >= d.ThermalHot {
		t.Errorf("thermal defaults inconsistent: %+v", d)
	}
	// Explicit values survive.
	c := Config{Governor: GovernorOndemand, CapWatts: 12, AdaptEvery: 7}.WithDefaults()
	if c.AdaptEvery != 7 || c.CapWatts != 12 {
		t.Errorf("explicit values overwritten: %+v", c)
	}
}

func TestNewBuildsEveryRegisteredGovernor(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New on empty governor: expected error")
	}
	for _, info := range Governors() {
		g, err := New(Config{Governor: info.Name, CapWatts: 20})
		if err != nil {
			t.Fatalf("New(%q): %v", info.Name, err)
		}
		if g.Name() != info.Name {
			t.Fatalf("New(%q).Name() = %q", info.Name, g.Name())
		}
		if !Known(info.Name) {
			t.Fatalf("Known(%q) = false for registered governor", info.Name)
		}
	}
}

// TestOndemandCapAndHysteresis: over the cap a socket throttles every
// kind one level; inside the hysteresis band nothing moves; under
// relaxFrac·cap it steps back up. The untouched socket never actuates.
func TestOndemandCapAndHysteresis(t *testing.T) {
	topo, levels := govTopo(t)
	g, err := New(Config{Governor: GovernorOndemand, CapWatts: 10})
	if err != nil {
		t.Fatal(err)
	}
	g.Bind(topo, levels)
	act := &fakeAct{}

	g.Adapt(platform.PowerSample{Watts: []float64{12, 5}}, act)
	got := act.reset()
	want := []Action{{Core: 0, Level: 1}, {Core: 1, Level: 1}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("over-cap actuations = %v, want %v", got, want)
	}

	// 9 W is inside (relaxFrac·10, 10]: no movement either way.
	g.Adapt(platform.PowerSample{Watts: []float64{9, 5}}, act)
	if got := act.reset(); len(got) != 0 {
		t.Fatalf("hysteresis band actuated: %v", got)
	}

	g.Adapt(platform.PowerSample{Watts: []float64{5, 5}}, act)
	got = act.reset()
	want = []Action{{Core: 0, Level: 0}, {Core: 1, Level: 0}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("relax actuations = %v, want %v", got, want)
	}
}

// TestFairnessGovSparesLimitingKind: over budget, the fairness-coupled
// governor throttles every kind except the one the feed names; with
// headroom it relaxes the limiting kind first.
func TestFairnessGovSparesLimitingKind(t *testing.T) {
	topo, levels := govTopo(t)
	g, err := New(Config{Governor: GovernorFairness, CapWatts: 10})
	if err != nil {
		t.Fatal(err)
	}
	g.Bind(topo, levels)
	g.(FeedSetter).SetFeed(fakeFeed{k: 1, ok: true}) // eff limits the slowest thread
	act := &fakeAct{}

	// Budget is 10·2 sockets = 20 W; 30 W total is over.
	g.Adapt(platform.PowerSample{Watts: []float64{15, 15}}, act)
	for _, a := range act.acts {
		if a.Core == 1 || a.Core == 3 {
			t.Fatalf("limiting kind throttled: %v", act.acts)
		}
	}
	if len(act.reset()) != 2 {
		t.Fatal("expected both perf cores throttled")
	}

	// Headroom: perf (the non-limiting kind, currently throttled) comes
	// back; eff was never touched.
	g.Adapt(platform.PowerSample{Watts: []float64{5, 5}}, act)
	got := act.reset()
	if len(got) != 2 || got[0].Core != 0 || got[0].Level != 0 || got[1].Core != 2 {
		t.Fatalf("relax actuations = %v", got)
	}
}

// TestFairnessGovThrottlesLimitingKindLast: when every other kind is
// already at its floor, the limiting kind does throttle — the cap is
// still a cap.
func TestFairnessGovThrottlesLimitingKindLast(t *testing.T) {
	topo, levels := govTopo(t)
	g, err := New(Config{Governor: GovernorFairness, CapWatts: 10})
	if err != nil {
		t.Fatal(err)
	}
	g.Bind(topo, levels)
	g.(FeedSetter).SetFeed(fakeFeed{k: 1, ok: true})
	act := &fakeAct{}
	over := platform.PowerSample{Watts: []float64{50, 50}}
	// perf has 4 levels: three invocations walk it to its floor.
	for i := 0; i < 3; i++ {
		g.Adapt(over, act)
	}
	act.reset()
	// Now only eff has room: the next over-budget invocation must touch it.
	g.Adapt(over, act)
	touchedEff := false
	for _, a := range act.acts {
		if a.Core == 1 || a.Core == 3 {
			touchedEff = true
		}
	}
	if !touchedEff {
		t.Fatalf("limiting kind never throttled at the floor: %v", act.acts)
	}
}

// TestThermalHysteresis: heat charges toward watts·R; the governor
// throttles only after crossing hot, keeps throttling while the
// temperature sits between cool and hot, and relaxes below cool.
func TestThermalHysteresis(t *testing.T) {
	topo, levels := govTopo(t)
	g, err := New(Config{Governor: GovernorThermal, ThermalR: 1.5, ThermalAlpha: 0.5, ThermalHot: 70, ThermalCool: 55})
	if err != nil {
		t.Fatal(err)
	}
	g.Bind(topo, levels)
	act := &fakeAct{}
	hot := platform.PowerSample{Watts: []float64{60, 0}} // target 90 °C on socket 0

	g.Adapt(hot, act) // temp 45: below hot, no trip
	if got := act.reset(); len(got) != 0 {
		t.Fatalf("throttled before crossing hot: %v", got)
	}
	g.Adapt(hot, act) // temp 67.5: still below hot
	act.reset()
	g.Adapt(hot, act) // temp 78.75: tripped
	if got := act.reset(); len(got) == 0 {
		t.Fatal("no throttle after crossing thermal_hot")
	}
	// Cooling toward 60: temp 69.4 — between cool and hot, trip holds.
	g.Adapt(platform.PowerSample{Watts: []float64{40, 0}}, act)
	act.reset()
	// Idle socket: temp decays below cool within a few invocations and
	// the governor relaxes back to nominal.
	relaxed := false
	for i := 0; i < 10 && !relaxed; i++ {
		g.Adapt(platform.PowerSample{Watts: []float64{0, 0}}, act)
		for _, a := range act.reset() {
			if a.Level == 0 {
				relaxed = true
			}
		}
	}
	if !relaxed {
		t.Fatal("never unthrottled after cooling below thermal_cool")
	}
}

// TestStatsDigest: the decision-stream digest is deterministic and
// distinguishes different actuation streams.
func TestStatsDigest(t *testing.T) {
	s := &Stats{Governor: "ondemand", Invocations: []Invocation{
		{T: 100, Watts: 12.5, Energy: 321.25, Acts: []Action{{Core: 0, Level: 1}, {Core: 1, Level: 1}}},
		{T: 200, Watts: 8, Energy: 400},
	}}
	if s.Actions() != 2 {
		t.Fatalf("Actions() = %d, want 2", s.Actions())
	}
	a, b := s.Digest(), s.Digest()
	if a != b {
		t.Fatal("digest not deterministic")
	}
	s2 := &Stats{Governor: "ondemand", Invocations: []Invocation{
		{T: 100, Watts: 12.5, Energy: 321.25, Acts: []Action{{Core: 0, Level: 2}, {Core: 1, Level: 1}}},
		{T: 200, Watts: 8, Energy: 400},
	}}
	if s2.Digest() == a {
		t.Fatal("digest does not distinguish different actuation streams")
	}
}
