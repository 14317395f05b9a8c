package machine

import (
	"math"
	"testing"

	"dike/internal/platform"
	"dike/internal/sim"
)

// testMachine returns a default machine for tests.
func testMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// place registers a thread with constant demand and places it.
func place(t *testing.T, m *Machine, id platform.ThreadID, bench int, work float64, dem Demand, core platform.CoreID) {
	t.Helper()
	if err := m.AddThread(id, bench, ConstProgram{Work: work, Demand: dem}); err != nil {
		t.Fatal(err)
	}
	if err := m.Place(id, core); err != nil {
		t.Fatal(err)
	}
}

// ConstProgram is the simplest Program: fixed total work with constant
// demand.
type ConstProgram struct {
	Work   float64
	Demand Demand
}

func (p ConstProgram) TotalWork() float64 { return p.Work }

func (p ConstProgram) DemandAt(float64, sim.Time) (Demand, Window) { return p.Demand, Forever() }

// coresOf lists topo's logical cores of kind k in id order.
func coresOf(topo *platform.Topology, k platform.CoreKind) []platform.CoreID {
	var out []platform.CoreID
	for _, c := range topo.Cores() {
		if c.Kind == k {
			out = append(out, c.ID)
		}
	}
	return out
}

// siblings lists the logical cores sharing id's physical core, id
// included.
func siblings(topo *platform.Topology, id platform.CoreID) []platform.CoreID {
	var out []platform.CoreID
	for _, c := range topo.Cores() {
		if c.Physical == topo.Core(id).Physical {
			out = append(out, c.ID)
		}
	}
	return out
}

// threadsOn lists the unfinished, arrived threads bound to core c, in
// registration order.
func threadsOn(m *Machine, c platform.CoreID) []platform.ThreadID {
	var out []platform.ThreadID
	for _, t := range m.slots {
		if t.alive(m.lastNow) && t.core == c {
			out = append(out, t.id)
		}
	}
	return out
}

// run steps the machine until done or the deadline.
func run(t *testing.T, m *Machine, deadline sim.Time) sim.Time {
	t.Helper()
	now := sim.Time(0)
	for !m.Done() {
		if now >= deadline {
			t.Fatalf("machine did not finish by %v", deadline)
		}
		m.Step(now, 1)
		now++
	}
	return now
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.SMTPenalty = 0 },
		func(c *Config) { c.SMTPenalty = 1.5 },
		func(c *Config) { c.Spec = nil },
		func(c *Config) { c.Spec.SharedMem.Capacity = 0 },
		func(c *Config) { c.Spec.SharedMem.BaseLatency = -1 },
		func(c *Config) { c.Spec.SharedMem.MaxUtil = 1 },
		func(c *Config) { c.Overlap = 1 },
		func(c *Config) { c.LLCHitLatency = -1 },
		func(c *Config) { c.MigrationStall = -1 },
		func(c *Config) { c.ColdMissFactor = 0.5 },
		func(c *Config) { c.ColdHalfLife = 0 },
		func(c *Config) { c.LocalColdFactor = 0.9 },
		func(c *Config) { c.LocalColdHalfLife = 0 },
		func(c *Config) { c.RemoteLatencyFactor = 0.5 },
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSingleThreadRuntime(t *testing.T) {
	m := testMachine(t)
	// Pure compute thread on a fast core: ~2.33 work/ms, 2330 work ->
	// about 1000 ms (slightly more due to hit latency).
	place(t, m, 0, 0, 2330, Demand{AccessesPerWork: 0, MissRatio: 0}, coresOf(m.Topology(), platform.FastCore)[0])
	done := run(t, m, 5000)
	if done < 990 || done > 1100 {
		t.Errorf("runtime = %v, want ~1000", done)
	}
}

func TestFastVsSlowCoreRatio(t *testing.T) {
	run1 := func(core platform.CoreID) sim.Time {
		m := testMachine(t)
		place(t, m, 0, 0, 1000, Demand{AccessesPerWork: 0.5, MissRatio: 0.02}, core)
		return run(t, m, 20000)
	}
	mTmp := testMachine(t)
	fast := run1(coresOf(mTmp.Topology(), platform.FastCore)[0])
	slow := run1(coresOf(mTmp.Topology(), platform.SlowCore)[0])
	ratio := float64(slow) / float64(fast)
	want := 2.33 / 1.21
	if math.Abs(ratio-want) > 0.1 {
		t.Errorf("slow/fast runtime ratio = %v, want ~%v", ratio, want)
	}
}

func TestSMTPenaltyApplies(t *testing.T) {
	mSolo := testMachine(t)
	fast := coresOf(mSolo.Topology(), platform.FastCore)
	place(t, mSolo, 0, 0, 1000, Demand{}, fast[0])
	solo := run(t, mSolo, 20000)

	mPair := testMachine(t)
	sib := siblings(mPair.Topology(), fast[0])
	place(t, mPair, 0, 0, 1000, Demand{}, sib[0])
	place(t, mPair, 1, 0, 1000, Demand{}, sib[1])
	paired := run(t, mPair, 20000)

	ratio := float64(paired) / float64(solo)
	want := 1 / mPair.cfg.SMTPenalty
	if math.Abs(ratio-want) > 0.05 {
		t.Errorf("SMT slowdown = %v, want ~%v", ratio, want)
	}
}

func TestLaneTimeSharing(t *testing.T) {
	// Two threads on the SAME logical core split it.
	m := testMachine(t)
	core := coresOf(m.Topology(), platform.FastCore)[0]
	place(t, m, 0, 0, 500, Demand{}, core)
	place(t, m, 1, 0, 500, Demand{}, core)
	done := run(t, m, 20000)
	mSolo := testMachine(t)
	place(t, mSolo, 0, 0, 500, Demand{}, core)
	solo := run(t, mSolo, 20000)
	if ratio := float64(done) / float64(solo); ratio < 1.9 || ratio > 2.2 {
		t.Errorf("time-sharing ratio = %v, want ~2", ratio)
	}
}

func TestContentionSlowsMemoryThreads(t *testing.T) {
	mem := Demand{AccessesPerWork: 10, MissRatio: 0.55}
	mSolo := testMachine(t)
	place(t, mSolo, 0, 0, 1000, mem, coresOf(mSolo.Topology(), platform.FastCore)[0])
	solo := run(t, mSolo, 60000)

	mBusy := testMachine(t)
	fast := coresOf(mBusy.Topology(), platform.FastCore)
	for i := 0; i < 16; i++ {
		place(t, mBusy, platform.ThreadID(i), 0, 1000, mem, fast[i])
	}
	busy := run(t, mBusy, 120000)
	if ratio := float64(busy) / float64(solo); ratio < 1.3 {
		t.Errorf("contention slowdown = %v, want > 1.3", ratio)
	}
}

func TestMigrationMechanics(t *testing.T) {
	m := testMachine(t)
	fast := coresOf(m.Topology(), platform.FastCore)[0]
	slow := coresOf(m.Topology(), platform.SlowCore)[0]
	place(t, m, 0, 0, 1e6, Demand{AccessesPerWork: 5, MissRatio: 0.3}, fast)
	m.Step(0, 1)
	if err := m.Migrate(0, slow, 1); err != nil {
		t.Fatal(err)
	}
	c, _ := m.CoreOf(0)
	if c != slow {
		t.Errorf("core after migrate = %v, want %v", c, slow)
	}
	if m.MigrationCount() != 1 {
		t.Errorf("migration count = %d", m.MigrationCount())
	}
	if m.threads[0].tc.Migrations != 1 {
		t.Errorf("thread migration counter = %d", m.threads[0].tc.Migrations)
	}
	// During the stall the thread makes no progress.
	before := m.threads[0].tc.Work
	m.Step(1, 1)
	if m.threads[0].tc.Work != before {
		t.Error("thread progressed during migration stall")
	}
	// Migrating to the same core is a no-op.
	if err := m.Migrate(0, slow, 2); err != nil {
		t.Fatal(err)
	}
	if m.MigrationCount() != 1 {
		t.Error("same-core migration counted")
	}
}

func TestSwapMechanics(t *testing.T) {
	m := testMachine(t)
	fast := coresOf(m.Topology(), platform.FastCore)[0]
	slow := coresOf(m.Topology(), platform.SlowCore)[0]
	place(t, m, 0, 0, 1e6, Demand{}, fast)
	place(t, m, 1, 0, 1e6, Demand{}, slow)
	if err := m.Swap(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	c0, _ := m.CoreOf(0)
	c1, _ := m.CoreOf(1)
	if c0 != slow || c1 != fast {
		t.Errorf("swap did not exchange cores: %v, %v", c0, c1)
	}
	if m.SwapCount() != 1 || m.MigrationCount() != 2 {
		t.Errorf("counts = %d swaps, %d migrations", m.SwapCount(), m.MigrationCount())
	}
	// Self-swap is a no-op.
	if err := m.Swap(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if m.SwapCount() != 1 {
		t.Error("self-swap counted")
	}
}

func TestColdCachePenaltyDecays(t *testing.T) {
	m := testMachine(t)
	fast := coresOf(m.Topology(), platform.FastCore)[0]
	slow := coresOf(m.Topology(), platform.SlowCore)[0]
	place(t, m, 0, 0, 1e6, Demand{AccessesPerWork: 10, MissRatio: 0.4}, fast)
	th := m.threads[0]
	coldFactor := func(now sim.Time) float64 {
		cold, _ := m.migrationFactors(th, now)
		return cold
	}
	if coldFactor(0) != 1 {
		t.Error("unmigrated thread has cold penalty")
	}
	m.Migrate(0, slow, 100)
	justAfter := coldFactor(100)
	wantPeak := m.cfg.ColdMissFactor
	if math.Abs(justAfter-wantPeak) > 1e-9 {
		t.Errorf("cold factor at migration = %v, want %v", justAfter, wantPeak)
	}
	half := coldFactor(100 + sim.Time(m.cfg.ColdHalfLife))
	if math.Abs(half-1-(wantPeak-1)/2) > 1e-9 {
		t.Errorf("cold factor after one half-life = %v", half)
	}
	late := coldFactor(100 + sim.Time(20*m.cfg.ColdHalfLife))
	if late > 1.001 {
		t.Errorf("cold factor did not decay: %v", late)
	}
}

func TestLocalVsRemoteMigrationPenalty(t *testing.T) {
	m := testMachine(t)
	fast := coresOf(m.Topology(), platform.FastCore)
	slow := coresOf(m.Topology(), platform.SlowCore)
	place(t, m, 0, 0, 1e6, Demand{AccessesPerWork: 10, MissRatio: 0.4}, fast[0])
	place(t, m, 1, 0, 1e6, Demand{AccessesPerWork: 10, MissRatio: 0.4}, fast[2])
	// Cross-socket move: big penalty plus NUMA latency factor.
	m.Migrate(0, slow[0], 0)
	cold, numa := m.migrationFactors(m.threads[0], 0)
	if cold != m.cfg.ColdMissFactor {
		t.Error("cross-socket move did not use remote penalty")
	}
	if numa != m.cfg.RemoteLatencyFactor {
		t.Error("cross-socket move did not set NUMA factor")
	}
	// Same-socket move: small penalty, no NUMA factor.
	m.Migrate(1, fast[4], 0)
	cold, numa = m.migrationFactors(m.threads[1], 0)
	if cold != m.cfg.LocalColdFactor {
		t.Error("local move did not use local penalty")
	}
	if numa != 1 {
		t.Error("local move set a NUMA factor")
	}
}

func TestBarrierGroupCouplesProgress(t *testing.T) {
	m := testMachine(t)
	fast := coresOf(m.Topology(), platform.FastCore)[0]
	slow := coresOf(m.Topology(), platform.SlowCore)[0]
	dem := Demand{AccessesPerWork: 1, MissRatio: 0.05}
	place(t, m, 0, 0, 1000, dem, fast)
	place(t, m, 1, 0, 1000, dem, slow)
	if err := m.AddBarrierGroup(50, []platform.ThreadID{0, 1}); err != nil {
		t.Fatal(err)
	}
	for now := sim.Time(0); now < 200; now++ {
		m.Step(now, 1)
	}
	w0 := m.threads[0].tc.Work
	w1 := m.threads[1].tc.Work
	// The fast thread may be at most one barrier segment ahead.
	if w0-w1 > 50+1e-9 {
		t.Errorf("barrier violated: fast at %v, slow at %v", w0, w1)
	}
	if w0 <= w1 {
		t.Errorf("fast thread not ahead at all: %v vs %v", w0, w1)
	}
}

func TestBarrierFinishedMembersReleaseGroup(t *testing.T) {
	m := testMachine(t)
	fast := coresOf(m.Topology(), platform.FastCore)[0]
	slow := coresOf(m.Topology(), platform.SlowCore)[0]
	dem := Demand{}
	place(t, m, 0, 0, 100, dem, fast) // finishes early
	place(t, m, 1, 0, 1000, dem, slow)
	if err := m.AddBarrierGroup(50, []platform.ThreadID{0, 1}); err != nil {
		t.Fatal(err)
	}
	done := run(t, m, 60000)
	if done <= 0 {
		t.Error("did not finish")
	}
}

func TestBarrierValidation(t *testing.T) {
	m := testMachine(t)
	place(t, m, 0, 0, 100, Demand{}, 0)
	if err := m.AddBarrierGroup(0, []platform.ThreadID{0, 0}); err == nil {
		t.Error("zero interval accepted")
	}
	if err := m.AddBarrierGroup(10, []platform.ThreadID{0}); err == nil {
		t.Error("single-member group accepted")
	}
	if err := m.AddBarrierGroup(10, []platform.ThreadID{0, 99}); err == nil {
		t.Error("unknown member accepted")
	}
}

func TestThreadAccounting(t *testing.T) {
	m := testMachine(t)
	dem := Demand{AccessesPerWork: 4, MissRatio: 0.5}
	place(t, m, 0, 0, 100, dem, coresOf(m.Topology(), platform.FastCore)[0])
	done := run(t, m, 10000)
	tc := m.threads[0].tc
	if math.Abs(tc.Work-100) > 1e-6 {
		t.Errorf("work = %v, want 100", tc.Work)
	}
	if math.Abs(tc.Accesses-400) > 1e-6 {
		t.Errorf("accesses = %v, want 400", tc.Accesses)
	}
	if math.Abs(tc.Misses-200) > 1e-6 {
		t.Errorf("misses = %v, want 200", tc.Misses)
	}
	if math.Abs(tc.Instructions-100000) > 1e-3 {
		t.Errorf("instructions = %v, want 1e5", tc.Instructions)
	}
	ft, ok := m.Finished(0)
	if !ok || ft <= 0 || ft > done {
		t.Errorf("finish time = %v, %v", ft, ok)
	}
	if m.Progress(0) != 1 {
		t.Errorf("progress = %v, want 1", m.Progress(0))
	}
	// Core counters saw the same misses.
	cc := m.coreCtr[coresOf(m.Topology(), platform.FastCore)[0]]
	if math.Abs(cc.ServedMisses-200) > 1e-6 {
		t.Errorf("core served = %v, want 200", cc.ServedMisses)
	}
}

func TestAddThreadValidation(t *testing.T) {
	m := testMachine(t)
	if err := m.AddThread(0, 0, nil); err == nil {
		t.Error("nil program accepted")
	}
	if err := m.AddThread(0, 0, ConstProgram{Work: 0}); err == nil {
		t.Error("zero work accepted")
	}
	if err := m.AddThread(0, 0, ConstProgram{Work: 10}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddThread(0, 0, ConstProgram{Work: 10}); err == nil {
		t.Error("duplicate thread accepted")
	}
	if err := m.Place(0, platform.CoreID(999)); err == nil {
		t.Error("out-of-range core accepted")
	}
	if err := m.Place(99, 0); err == nil {
		t.Error("unknown thread accepted")
	}
}

func TestUnplacedThreadPanics(t *testing.T) {
	m := testMachine(t)
	if err := m.AddThread(0, 0, ConstProgram{Work: 10}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("stepping with unplaced thread did not panic")
		}
	}()
	m.Step(0, 1)
}

func TestAliveAndThreadsOn(t *testing.T) {
	m := testMachine(t)
	place(t, m, 0, 0, 50, Demand{}, 0)
	place(t, m, 1, 1, 50000, Demand{}, 1)
	if len(m.Alive()) != 2 {
		t.Error("Alive wrong before run")
	}
	// Run until thread 0 finishes.
	now := sim.Time(0)
	for {
		if _, ok := m.Finished(0); ok {
			break
		}
		m.Step(now, 1)
		now++
	}
	alive := m.Alive()
	if len(alive) != 1 || alive[0] != 1 {
		t.Errorf("Alive = %v, want [1]", alive)
	}
	if got := threadsOn(m, 0); len(got) != 0 {
		t.Errorf("ThreadsOn(0) = %v, want empty (occupant finished)", got)
	}
	if got := threadsOn(m, 1); len(got) != 1 || got[0] != 1 {
		t.Errorf("ThreadsOn(1) = %v", got)
	}
	b, err := m.BenchOf(1)
	if err != nil || b != 1 {
		t.Errorf("BenchOf = %v, %v", b, err)
	}
}

func TestDeterminism(t *testing.T) {
	build := func() *Machine {
		m := testMachine(t)
		dem := Demand{AccessesPerWork: 8, MissRatio: 0.4}
		for i := 0; i < 8; i++ {
			place(t, m, platform.ThreadID(i), 0, 2000, dem, platform.CoreID(i*3%40))
		}
		return m
	}
	m1, m2 := build(), build()
	d1 := run(t, m1, 200000)
	d2 := run(t, m2, 200000)
	if d1 != d2 {
		t.Errorf("runs diverged: %v vs %v", d1, d2)
	}
	if m1.threads[3].tc.Misses != m2.threads[3].tc.Misses {
		t.Error("counter state diverged")
	}
}
