package core

import (
	"math"
	"testing"

	"dike/internal/counters"
	"dike/internal/platform"
	"dike/internal/platform/platformtest"
	"dike/internal/sim"
)

// steerableDisruptor perturbs only the target thread's counter deltas,
// with a caller-supplied mutation. All platform faults are off.
type steerableDisruptor struct {
	target platform.ThreadID
	mutate func(counters.ThreadDelta) (counters.ThreadDelta, bool)
}

func (d *steerableDisruptor) CoreFactor(platform.CoreID, sim.Time) float64 { return 1 }
func (d *steerableDisruptor) MigrationFails(platform.ThreadID, platform.CoreID, sim.Time) bool {
	return false
}
func (d *steerableDisruptor) ThreadFault(platform.ThreadID, sim.Time) (bool, bool) {
	return false, false
}
func (d *steerableDisruptor) PerturbDelta(id platform.ThreadID, _ sim.Time, delta counters.ThreadDelta) (counters.ThreadDelta, bool) {
	if id == d.target && d.mutate != nil {
		return d.mutate(delta)
	}
	return delta, true
}

// observeQuantum advances the machine one 500 ms quantum and observes.
func observeQuantum(t *testing.T, m *platformtest.Machine, o *Observer, q int) *Observation {
	t.Helper()
	from, to := sim.Time((q-1)*500), sim.Time(q*500)
	return observeAfter(t, m, o, from, to)
}

func TestObserverRejectsInsaneReadings(t *testing.T) {
	kinds := []struct {
		name string
		mut  func(counters.ThreadDelta) (counters.ThreadDelta, bool)
	}{
		{"nan", func(d counters.ThreadDelta) (counters.ThreadDelta, bool) { d.Misses = math.NaN(); return d, true }},
		{"+inf", func(d counters.ThreadDelta) (counters.ThreadDelta, bool) { d.Misses = math.Inf(1); return d, true }},
		{"-inf", func(d counters.ThreadDelta) (counters.ThreadDelta, bool) { d.Misses = math.Inf(-1); return d, true }},
		{"negative", func(d counters.ThreadDelta) (counters.ThreadDelta, bool) { d.Misses = -d.Misses - 1; return d, true }},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			m := twoClassMachine(t)
			o := newObserver(m, 0.25, 0.10, false)
			dis := &steerableDisruptor{target: 0}
			m.SetDisruptor(dis)
			mustObserve(t, o, 0)
			clean := observeQuantum(t, m, o, 1)
			goodRate := clean.Rate[clean.Index(0)]
			if goodRate <= 0 {
				t.Fatal("setup: thread 0 should have a positive rate")
			}

			dis.mutate = k.mut
			obs := observeQuantum(t, m, o, 2)
			if !obs.Held[obs.Index(0)] {
				t.Error("insane reading not marked held")
			}
			if obs.Sanitized.Rejected != 1 {
				t.Errorf("Rejected = %d, want 1", obs.Sanitized.Rejected)
			}
			// Hold-last-good: the rate stays near the last sane measurement
			// instead of going NaN/Inf/negative.
			r := obs.Rate[obs.Index(0)]
			if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
				t.Errorf("held rate is garbage: %v", r)
			}
			if r != goodRate {
				t.Errorf("held rate = %v, want last good %v", r, goodRate)
			}
			// The fairness gate stays finite.
			if math.IsNaN(obs.Fairness) || math.IsInf(obs.Fairness, 0) {
				t.Errorf("fairness gate corrupted: %v", obs.Fairness)
			}
		})
	}
}

func TestObserverDropoutHoldsThenExpires(t *testing.T) {
	m := twoClassMachine(t)
	o := newObserver(m, 0.25, 0.10, false)
	dis := &steerableDisruptor{target: 0}
	m.SetDisruptor(dis)
	mustObserve(t, o, 0)
	clean := observeQuantum(t, m, o, 1)
	goodRate := clean.Rate[clean.Index(0)]

	dis.mutate = func(d counters.ThreadDelta) (counters.ThreadDelta, bool) { return d, false }
	for q := 2; q <= 1+maxStaleQuanta; q++ {
		obs := observeQuantum(t, m, o, q)
		if !obs.Held[obs.Index(0)] {
			t.Fatalf("quantum %d: dropped sample not held", q)
		}
		if obs.Rate[obs.Index(0)] != goodRate {
			t.Fatalf("quantum %d: held rate %v, want %v", q, obs.Rate[obs.Index(0)], goodRate)
		}
		if obs.Sanitized.Dropped != 1 {
			t.Fatalf("quantum %d: Dropped = %d, want 1", q, obs.Sanitized.Dropped)
		}
	}
	// Beyond the staleness bound the held estimate expires to zero.
	obs := observeQuantum(t, m, o, 2+maxStaleQuanta)
	if !obs.Held[obs.Index(0)] {
		t.Error("expired thread not marked held")
	}
	if obs.Rate[obs.Index(0)] != 0 {
		t.Errorf("stale-beyond-bound rate = %v, want 0", obs.Rate[obs.Index(0)])
	}
	// Recovery: a good sample resets the hold state immediately.
	dis.mutate = nil
	obs = observeQuantum(t, m, o, 3+maxStaleQuanta)
	if obs.Held[obs.Index(0)] {
		t.Error("recovered thread still held")
	}
	if obs.Rate[obs.Index(0)] <= 0 {
		t.Errorf("recovered rate = %v, want positive", obs.Rate[obs.Index(0)])
	}
	if got := o.SanitizedTotal().Dropped; got != maxStaleQuanta+1 {
		t.Errorf("run total Dropped = %d, want %d", got, maxStaleQuanta+1)
	}
}

func TestObserverClampsSaturatedReadings(t *testing.T) {
	m := twoClassMachine(t)
	o := newObserver(m, 0.25, 0.10, false)
	dis := &steerableDisruptor{target: 0}
	m.SetDisruptor(dis)
	mustObserve(t, o, 0)
	observeQuantum(t, m, o, 1)

	dis.mutate = func(d counters.ThreadDelta) (counters.ThreadDelta, bool) {
		d.Misses, d.Accesses = 1e12, 1e12
		return d, true
	}
	obs := observeQuantum(t, m, o, 2)
	capacity := m.MemCapacity()
	if obs.Rate[obs.Index(0)] != capacity {
		t.Errorf("saturated rate = %v, want clamp to capacity %v", obs.Rate[obs.Index(0)], capacity)
	}
	if obs.Sanitized.Clamped != 1 {
		t.Errorf("Clamped = %d, want 1", obs.Sanitized.Clamped)
	}
	// A clamped reading is a (bounded) measurement, not a hold.
	if obs.Held[obs.Index(0)] {
		t.Error("clamped reading marked held")
	}
}

func TestObserverZeroIntervalQuantum(t *testing.T) {
	m := twoClassMachine(t)
	o := newObserver(m, 0.25, 0.10, false)
	mustObserve(t, o, 0)
	// A second observation at the same instant is a zero-length quantum:
	// no rates, no sanitization, no held threads.
	obs := mustObserve(t, o, 0)
	if obs.Sample.Interval != 0 {
		t.Fatalf("interval = %v, want 0", obs.Sample.Interval)
	}
	for i, id := range obs.Alive {
		if obs.Rate[i] != 0 {
			t.Errorf("thread %d rate = %v in a zero-length quantum", id, obs.Rate[i])
		}
	}
	if n := obs.HeldThreads(); n != 0 {
		t.Errorf("zero-length quantum held %d threads", n)
	}
	if obs.Sanitized != (SanitizeStats{}) {
		t.Errorf("zero-length quantum sanitized: %+v", obs.Sanitized)
	}
}

func TestObserverHeldExcludedFromCapability(t *testing.T) {
	m := twoClassMachine(t)
	o := newObserver(m, 0.25, 0.10, false)
	dis := &steerableDisruptor{target: 0}
	m.SetDisruptor(dis)
	mustObserve(t, o, 0)
	core0, err := m.CoreOf(0)
	if err != nil {
		t.Fatal(err)
	}
	before := observeQuantum(t, m, o, 1).Capability[core0]
	// Poison thread 0 with an insane reading carrying a colossal rate; if
	// the capability estimator consumed it the core would look superhuman.
	dis.mutate = func(d counters.ThreadDelta) (counters.ThreadDelta, bool) {
		d.Misses = math.Inf(1)
		return d, true
	}
	after := observeQuantum(t, m, o, 2).Capability[core0]
	if math.IsNaN(after) || math.IsInf(after, 0) {
		t.Fatalf("capability corrupted: %v", after)
	}
	// The estimate may drift from the other (healthy) threads' absence of
	// thread 0's contribution is the point: no garbage-driven jump.
	if after > before*2 {
		t.Errorf("capability jumped from %v to %v on a held thread", before, after)
	}
}

func TestWatchdogRevertsToLastKnownGood(t *testing.T) {
	m := twoClassMachine(t)
	cfg := DefaultConfig()
	d := newDike(t, m, cfg)
	// Drift the parameters away from the validated starting pair, then
	// feed the watchdog a diverging gate: after watchdogK consecutive
	// growth quanta it must restore the last-known-good pair.
	d.swapSize, d.quanta = 16, 100
	gate := 0.2
	for i := 0; i < watchdogK+1; i++ {
		d.watchdog(&Observation{Fairness: gate})
		gate *= 1.10
	}
	if d.WatchdogTrips() != 1 {
		t.Fatalf("WatchdogTrips = %d, want 1", d.WatchdogTrips())
	}
	if d.swapSize != cfg.SwapSize || d.quanta != cfg.QuantaLength {
		t.Errorf("params after revert = <%d,%v>, want <%d,%v>",
			d.swapSize, d.quanta, cfg.SwapSize, cfg.QuantaLength)
	}
}

func TestWatchdogQuietWhenFair(t *testing.T) {
	m := twoClassMachine(t)
	d := newDike(t, m, DefaultConfig())
	d.swapSize, d.quanta = 16, 100
	// Below the threshold the watchdog records, never trips — and adopts
	// the current parameters as the new last-known-good.
	for i := 0; i < 3*watchdogK; i++ {
		d.watchdog(&Observation{Fairness: 0.01})
	}
	if d.WatchdogTrips() != 0 {
		t.Errorf("watchdog tripped on a fair system: %d", d.WatchdogTrips())
	}
	if d.lkgSwap != 16 || d.lkgQuanta != 100 {
		t.Errorf("lkg = <%d,%v>, want the healthy <16,100>", d.lkgSwap, d.lkgQuanta)
	}
	// A noisy-but-not-diverging gate (oscillating around a level) must not
	// trip either.
	for i := 0; i < 3*watchdogK; i++ {
		f := 0.2
		if i%2 == 0 {
			f = 0.25
		}
		d.watchdog(&Observation{Fairness: f})
	}
	if d.WatchdogTrips() != 0 {
		t.Errorf("watchdog tripped on an oscillating gate: %d", d.WatchdogTrips())
	}
}

func TestOptimizerForceParams(t *testing.T) {
	o := NewOptimizer(AdaptFairness, 8, 500, true)
	o.ForceParams(12, 200)
	if s, q := o.Params(); s != 12 || q != 200 {
		t.Errorf("ForceParams gave <%d,%v>, want <12,200>", s, q)
	}
	// Out-of-range values snap into the valid space instead of panicking.
	o.ForceParams(99, 333)
	s, q := o.Params()
	if s != MaxSwapSize {
		t.Errorf("swap = %d, want clamp to %d", s, MaxSwapSize)
	}
	if q != 200 && q != 500 {
		t.Errorf("quanta = %v, want nearest valid level to 333", q)
	}
	o.ForceParams(1, 100)
	if s, _ := o.Params(); s != MinSwapSize {
		t.Errorf("swap = %d, want floor %d", s, MinSwapSize)
	}
}
