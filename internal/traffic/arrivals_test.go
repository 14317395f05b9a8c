package traffic

import (
	"math"
	"testing"

	"dike/internal/sim"
)

// oneClassSpec builds a single-class spec for one arrival process.
func oneClassSpec(t *testing.T, arrival ArrivalSpec, horizonMs int64) *Spec {
	t.Helper()
	s := &Spec{
		HorizonMs: horizonMs,
		Classes: []ClassSpec{{
			Name: "c", Profile: "jacobi", MeanWork: 500, Arrival: arrival,
		}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// arrivalCases covers every process with CI-sized horizons: long enough
// for the law of large numbers to bite, short enough to stay fast.
var arrivalCases = []struct {
	name      string
	arrival   ArrivalSpec
	horizonMs int64
	// wantCVAbove: interarrival coefficient of variation floor (MMPP is
	// burstier than Poisson's CV≈1). wantCVNear: expect CV≈1 within tol.
	wantCVNear  bool
	wantCVAbove float64
}{
	{
		name:       "poisson",
		arrival:    ArrivalSpec{Process: ProcessPoisson, RatePerSec: 200},
		horizonMs:  60_000,
		wantCVNear: true,
	},
	{
		name:        "mmpp",
		arrival:     ArrivalSpec{Process: ProcessMMPP, RatePerSec: 200, BurstFactor: 6, BurstMs: 300, CalmMs: 1500},
		horizonMs:   60_000,
		wantCVAbove: 1.1,
	},
	{
		name:      "diurnal",
		arrival:   ArrivalSpec{Process: ProcessDiurnal, RatePerSec: 200, Amplitude: 0.8, PeriodMs: 10_000},
		horizonMs: 60_000,
	},
}

func TestArrivalStreamsDeterministic(t *testing.T) {
	for _, tc := range arrivalCases {
		t.Run(tc.name, func(t *testing.T) {
			spec := oneClassSpec(t, tc.arrival, tc.horizonMs)
			a := spec.Generate(7)
			b := spec.Generate(7)
			if len(a) == 0 {
				t.Fatal("empty arrival stream")
			}
			if len(a) != len(b) {
				t.Fatalf("same seed, different lengths: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("same seed diverges at arrival %d: %+v vs %+v", i, a[i], b[i])
				}
			}
			c := spec.Generate(8)
			same := len(a) == len(c)
			if same {
				for i := range a {
					if a[i] != c[i] {
						same = false
						break
					}
				}
			}
			if same {
				t.Error("different seeds produced the identical stream")
			}
		})
	}
}

func TestArrivalStreamsWellFormed(t *testing.T) {
	for _, tc := range arrivalCases {
		t.Run(tc.name, func(t *testing.T) {
			spec := oneClassSpec(t, tc.arrival, tc.horizonMs)
			arr := spec.Generate(7)
			prev := sim.Time(0)
			for i, a := range arr {
				if a.At < 1 || a.At >= sim.Time(tc.horizonMs)+1 {
					t.Fatalf("arrival %d at %v outside [1, horizon+1)", i, a.At)
				}
				if a.At < prev {
					t.Fatalf("arrival %d at %v before predecessor %v", i, a.At, prev)
				}
				prev = a.At
				if a.Work <= 0 {
					t.Fatalf("arrival %d has non-positive work %g", i, a.Work)
				}
			}
		})
	}
}

func TestArrivalMeanRateMatchesSpec(t *testing.T) {
	// Every process — including the bursty and ramping ones — must hit
	// the requested time-average rate, or sweeping offered load would
	// move classes unequally.
	for _, tc := range arrivalCases {
		t.Run(tc.name, func(t *testing.T) {
			spec := oneClassSpec(t, tc.arrival, tc.horizonMs)
			// Average over seeds: MMPP counts are overdispersed by design,
			// so a single draw can legitimately sit >10% off the mean.
			total := 0
			const seeds = 10
			for seed := uint64(1); seed <= seeds; seed++ {
				total += len(spec.Generate(seed))
			}
			want := tc.arrival.RatePerSec * float64(tc.horizonMs) / 1000
			got := float64(total) / seeds
			if math.Abs(got-want)/want > 0.10 {
				t.Errorf("mean arrivals = %.0f, want %.0f ±10%%", got, want)
			}
		})
	}
}

func TestArrivalInterarrivalMoments(t *testing.T) {
	for _, tc := range arrivalCases {
		if !tc.wantCVNear && tc.wantCVAbove == 0 {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			spec := oneClassSpec(t, tc.arrival, tc.horizonMs)
			arr := spec.Generate(7)
			var gaps []float64
			for i := 1; i < len(arr); i++ {
				gaps = append(gaps, float64(arr[i].At-arr[i-1].At))
			}
			mean, sd := 0.0, 0.0
			for _, g := range gaps {
				mean += g
			}
			mean /= float64(len(gaps))
			for _, g := range gaps {
				sd += (g - mean) * (g - mean)
			}
			sd = math.Sqrt(sd / float64(len(gaps)))
			cv := sd / mean
			if tc.wantCVNear {
				// Integer-ms quantisation at 5ms mean gaps pulls the CV a
				// little under the continuous value of 1.
				if cv < 0.8 || cv > 1.2 {
					t.Errorf("interarrival CV = %.3f, want ≈1 (exponential)", cv)
				}
			}
			if tc.wantCVAbove > 0 && cv <= tc.wantCVAbove {
				t.Errorf("interarrival CV = %.3f, want > %.2f (bursty)", cv, tc.wantCVAbove)
			}
		})
	}
}

func TestArrivalLoadScalesRate(t *testing.T) {
	base := oneClassSpec(t, ArrivalSpec{Process: ProcessPoisson, RatePerSec: 200}, 60_000)
	half := *base
	half.Load = 0.5
	n1 := len(base.Generate(7))
	n2 := len(half.Generate(7))
	ratio := float64(n2) / float64(n1)
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("load 0.5 scaled arrivals by %.3f, want ≈0.5", ratio)
	}
}

func TestArrivalFixedWorkDist(t *testing.T) {
	s := oneClassSpec(t, ArrivalSpec{Process: ProcessPoisson, RatePerSec: 100}, 10_000)
	s.Classes[0].WorkDist = WorkDistFixed
	for i, a := range s.Generate(3) {
		if a.Work != 500 {
			t.Fatalf("fixed work_dist arrival %d has work %g, want 500", i, a.Work)
		}
	}
}

func TestArrivalExpWorkDistMean(t *testing.T) {
	s := oneClassSpec(t, ArrivalSpec{Process: ProcessPoisson, RatePerSec: 500}, 60_000)
	arr := s.Generate(3)
	sum := 0.0
	for _, a := range arr {
		sum += a.Work
	}
	mean := sum / float64(len(arr))
	// The [0.05, 8]× clamp trims the exponential's far tail slightly.
	if mean < 400 || mean > 600 {
		t.Errorf("mean drawn work = %.0f, want ≈500", mean)
	}
}

// TestValidateBoundsClassEvents: Generate draws a class's whole stream
// before the run starts, so a spec whose rate or MMPP dwell times would
// make it draw more than maxClassEvents events is rejected up front.
func TestValidateBoundsClassEvents(t *testing.T) {
	for _, tc := range []struct {
		name    string
		arrival ArrivalSpec
		ok      bool
	}{
		{"poisson at the bound", ArrivalSpec{Process: ProcessPoisson, RatePerSec: maxClassEvents}, true},
		{"poisson over the bound", ArrivalSpec{Process: ProcessPoisson, RatePerSec: 2 * maxClassEvents}, false},
		{"poisson at an overflowing rate", ArrivalSpec{Process: ProcessPoisson, RatePerSec: math.MaxFloat64}, false},
		{"mmpp with millisecond dwells", ArrivalSpec{Process: ProcessMMPP, RatePerSec: 1, BurstMs: 1, CalmMs: 1}, true},
		{"mmpp with vanishing dwells", ArrivalSpec{Process: ProcessMMPP, RatePerSec: 1, BurstMs: 1e-300, CalmMs: 1e-300}, false},
	} {
		s := &Spec{HorizonMs: 1000, Classes: []ClassSpec{{Name: "c", Profile: "jacobi", MeanWork: 500, Arrival: tc.arrival}}}
		if err := s.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
