package core

import (
	"fmt"
	"slices"
	"testing"

	"dike/internal/sim"
)

// benchSizes are the per-layer benchmark shapes: the paper's 40-lane
// machine a little oversubscribed, and a 1024-core machine.
var benchSizes = []struct{ cores, threads, procs int }{
	{40, 48, 4},
	{1024, 1024, 8},
}

// benchObservations returns one warm Observation per scripted quantum
// with a sample interval, each from its own Observer so that all stay
// valid together.
func benchObservations(b *testing.B, cores, threads, procs int) []*Observation {
	b.Helper()
	sp := policyScript(cores, threads, procs)
	var out []*Observation
	for q := 1; q < len(sp.quanta); q++ {
		o := warmObserver(b, sp)
		sp.q = q
		obs, err := o.Observe(sim.Time(len(sp.quanta) * 500))
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, obs)
	}
	return out
}

// BenchmarkObserve times Observer.Observe, one quantum per op.
func BenchmarkObserve(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(fmt.Sprintf("%dc", sz.cores), func(b *testing.B) {
			sp := policyScript(sz.cores, sz.threads, sz.procs)
			o := warmObserver(b, sp)
			now := sim.Time(len(sp.quanta) * 500)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nextQuantum(sp)
				if _, err := o.Observe(now); err != nil {
					b.Fatal(err)
				}
				now += 500
			}
		})
	}
}

// BenchmarkSelectPairs times SelectPairs at the default swap size, one
// quantum's selection per op.
func BenchmarkSelectPairs(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(fmt.Sprintf("%dc", sz.cores), func(b *testing.B) {
			obs := benchObservations(b, sz.cores, sz.threads, sz.procs)
			swap := DefaultConfig().SwapSize
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SelectPairs(obs[i%len(obs)], swap)
			}
		})
	}
}

// BenchmarkPredict times Predictor.Predict, one candidate pair per op.
func BenchmarkPredict(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(fmt.Sprintf("%dc", sz.cores), func(b *testing.B) {
			cfg := DefaultConfig()
			type job struct {
				obs  *Observation
				pair Pair
			}
			var jobs []job
			for _, obs := range benchObservations(b, sz.cores, sz.threads, sz.procs) {
				for _, p := range slices.Clone(SelectPairs(obs, cfg.SwapSize)) {
					jobs = append(jobs, job{obs, p})
				}
			}
			if len(jobs) == 0 {
				b.Fatal("no candidate pairs")
			}
			prd := Predictor{SwapOH: cfg.SwapOH}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := jobs[i%len(jobs)]
				prd.Predict(j.obs, j.pair, cfg.QuantaLength)
			}
		})
	}
}
