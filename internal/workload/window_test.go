package workload

import (
	"math"
	"testing"

	"dike/internal/machine"
	"dike/internal/sim"
)

// uniform draws a float64 uniformly from [lo, hi).
func uniform(rng *sim.RNG, lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }

// FuzzDemandWindow checks the window DemandAt returns: it must contain
// the query, and every point sampled inside it (its corners, the query's
// row and column, and every instant of a narrow time range) must get the
// same Demand, bit for bit, from a fresh call. Profiles are random valid
// ones: up to four phases, a burst, noise. snap moves the query's work
// onto a phase bound or just below one, where the phase lookup turns.
func FuzzDemandWindow(f *testing.F) {
	f.Add(uint64(1), uint64(2), 100.0, 50.0, int64(500), int64(50), 0.2, 10.0, int64(0), uint8(0))
	f.Add(uint64(7), uint64(3), 1e-300, 1e300, int64(97), int64(97), 0.0, 1e300, int64(1<<40), uint8(1))
	f.Add(uint64(3), uint64(5), 0.5, 0.25, int64(1), int64(0), 0.9, 0.5, int64(-70), uint8(2))
	f.Add(uint64(9), uint64(1), 3.0, 3.0, int64(math.MaxInt64), int64(1), 0.1, 3.0, int64(math.MaxInt64-5), uint8(0))
	f.Fuzz(func(t *testing.T, seed, shape uint64, w0, w1 float64, every, blen int64, noise, work float64, now int64, snap uint8) {
		rng := sim.NewRNG(shape)
		p := &Profile{
			Name:            "fuzz",
			BurstEvery:      sim.Time(every),
			BurstLen:        sim.Time(blen),
			BurstAccesses:   uniform(rng, 0, 50),
			BurstMissRatio:  rng.Float64(),
			NoiseEps:        noise,
			BarrierInterval: 0,
		}
		for i := 0; i < 1+rng.Intn(4); i++ {
			w := uniform(rng, 0.1, 1000)
			switch i {
			case 0:
				w = w0
			case 1:
				w = w1
			}
			p.Phases = append(p.Phases, Phase{Work: w, AccessesPerWork: uniform(rng, 0, 50), MissRatio: rng.Float64()})
		}
		if p.Validate() != nil || math.IsInf(p.TotalWork(), 0) || math.IsNaN(p.TotalWork()) {
			return
		}
		prog := p.Instantiate(seed).(*program)
		if len(prog.bounds) > 0 {
			b := prog.bounds[int(snap/4)%len(prog.bounds)]
			switch snap % 4 {
			case 1:
				work = b
			case 2:
				work = math.Nextafter(b, math.Inf(-1))
			}
		}
		if math.IsNaN(work) {
			return // NaN work lies in no window
		}
		t0 := sim.Time(now)
		want, win := prog.DemandAt(work, t0)
		if !win.Contains(work, t0) {
			t.Fatalf("DemandAt(%v, %d) window %+v does not contain the query", work, t0, win)
		}
		works := []float64{win.WorkFrom, win.WorkTo, work, mid(win.WorkFrom, work), mid(work, win.WorkTo)}
		times := []sim.Time{win.From, win.To, t0, midTime(win.From, t0), midTime(t0, win.To)}
		if width := uint64(win.To) - uint64(win.From); width < 256 {
			for tm := win.From; tm < win.To; tm++ {
				times = append(times, tm)
			}
		} else {
			for i := 0; i < 64; i++ {
				times = append(times, win.From+sim.Time(rng.Uint64()%width))
			}
		}
		for _, w := range works {
			for _, tm := range times {
				if !win.Contains(w, tm) {
					t.Fatalf("sample (%v, %d) outside window %+v", w, tm, win)
				}
				got, _ := prog.DemandAt(w, tm)
				if !sameDemand(got, want) {
					t.Fatalf("window %+v of DemandAt(%v, %d) = %+v, but DemandAt(%v, %d) = %+v",
						win, work, t0, want, w, tm, got)
				}
			}
		}
	})
}

// mid returns a point between a and b (both in the window), or a when
// they are infinite.
func mid(a, b float64) float64 {
	m := a/2 + b/2
	if math.IsNaN(m) || math.IsInf(m, 0) {
		return a
	}
	return max(a, min(m, b))
}

// midTime returns the instant halfway from a to b >= a, without
// overflowing.
func midTime(a, b sim.Time) sim.Time {
	return a + sim.Time((uint64(b)-uint64(a))/2)
}

// sameDemand compares two demands bit for bit.
func sameDemand(a, b machine.Demand) bool {
	return math.Float64bits(a.AccessesPerWork) == math.Float64bits(b.AccessesPerWork) &&
		math.Float64bits(a.MissRatio) == math.Float64bits(b.MissRatio)
}
