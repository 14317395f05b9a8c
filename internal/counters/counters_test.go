package counters

import (
	"math"
	"testing"
	"testing/quick"
)

func TestThreadDelta(t *testing.T) {
	var prev ThreadCounters
	tc := ThreadCounters{Misses: 50, Accesses: 200, Instructions: 1000, Work: 1, Migrations: 2}
	d := tc.Since(prev, 100)
	if d.AccessRate() != 0.5 {
		t.Errorf("AccessRate = %v, want 0.5", d.AccessRate())
	}
	if d.MissRatio() != 0.25 {
		t.Errorf("MissRatio = %v, want 0.25", d.MissRatio())
	}
	if d.IPS() != 10 {
		t.Errorf("IPS = %v, want 10", d.IPS())
	}
	if d.Migrations != 2 {
		t.Errorf("Migrations = %d, want 2", d.Migrations)
	}
}

func TestDeltaDegenerateIntervals(t *testing.T) {
	d := ThreadDelta{Interval: 0, Misses: 10, Accesses: 0, Instructions: 5}
	if d.AccessRate() != 0 || d.IPS() != 0 {
		t.Error("zero interval should yield zero rates")
	}
	if d.MissRatio() != 0 {
		t.Error("zero accesses should yield zero miss ratio")
	}
}

func TestCoreDelta(t *testing.T) {
	var prev CoreCounters
	d := CoreCounters{ServedMisses: 30}.Since(prev, 60)
	if d != (CoreDelta{Interval: 60, ServedMisses: 30}) {
		t.Errorf("Since = %+v, want 30 misses over 60 ms", d)
	}
}

func TestThreadSinceIsExactDifference(t *testing.T) {
	// Differencing two snapshots always recovers exactly what was added
	// between them, for any update sequence.
	f := func(add1, add2 []float64) bool {
		var tc ThreadCounters
		apply := func(xs []float64) float64 {
			sum := 0.0
			for _, x := range xs {
				if x < 0 || x > 1e12 {
					continue
				}
				tc.Misses += x
				sum += x
			}
			return sum
		}
		apply(add1)
		snap := tc
		want := apply(add2)
		d := tc.Since(snap, 1)
		diff := d.Misses - want
		return diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThreadDeltaSane(t *testing.T) {
	good := ThreadDelta{Interval: 100, Instructions: 1e6, Accesses: 1e4, Misses: 500, Work: 1e5}
	if !good.Sane() {
		t.Error("plausible delta reported insane")
	}
	nan := math.NaN()
	cases := []struct {
		name string
		mut  func(*ThreadDelta)
	}{
		{"nan misses", func(d *ThreadDelta) { d.Misses = nan }},
		{"nan accesses", func(d *ThreadDelta) { d.Accesses = nan }},
		{"nan instructions", func(d *ThreadDelta) { d.Instructions = nan }},
		{"nan work", func(d *ThreadDelta) { d.Work = nan }},
		{"+inf misses", func(d *ThreadDelta) { d.Misses = math.Inf(1) }},
		{"-inf misses", func(d *ThreadDelta) { d.Misses = math.Inf(-1) }},
		{"+inf accesses", func(d *ThreadDelta) { d.Accesses = math.Inf(1) }},
		{"negative misses", func(d *ThreadDelta) { d.Misses = -1 }},
		{"negative accesses", func(d *ThreadDelta) { d.Accesses = -0.5 }},
		{"negative instructions", func(d *ThreadDelta) { d.Instructions = -1e3 }},
		{"negative work", func(d *ThreadDelta) { d.Work = -1 }},
	}
	for _, c := range cases {
		d := good
		c.mut(&d)
		if d.Sane() {
			t.Errorf("%s reported sane", c.name)
		}
	}
	// A zero-length quantum yields a zero delta: still sane (rates are
	// separately guarded by Interval checks), and all rates must be 0.
	zero := ThreadDelta{}
	if !zero.Sane() {
		t.Error("zero delta reported insane")
	}
	if zero.AccessRate() != 0 || zero.IPS() != 0 || zero.MissRatio() != 0 {
		t.Error("zero-interval delta produced nonzero rates")
	}
	// Saturated counters are finite and non-negative: Sane cannot reject
	// them (a real PMU rollover looks like a huge but valid count), so
	// downstream consumers must clamp against physical capacity instead.
	sat := good
	sat.Misses, sat.Accesses = 1e12, 1e12
	if !sat.Sane() {
		t.Error("saturated delta must pass Sane (clamping is the consumer's job)")
	}
}

func TestCoreDeltaSane(t *testing.T) {
	if !(CoreDelta{Interval: 100, ServedMisses: 1e4}).Sane() {
		t.Error("plausible core delta reported insane")
	}
	bad := []CoreDelta{
		{Interval: 100, ServedMisses: math.NaN()},
		{Interval: 100, ServedMisses: math.Inf(1)},
		{Interval: 100, ServedMisses: math.Inf(-1)},
		{Interval: 100, ServedMisses: -5},
	}
	for i, d := range bad {
		if d.Sane() {
			t.Errorf("bad core delta %d reported sane", i)
		}
	}
}
