package harness

import (
	"context"
	"fmt"

	"dike/internal/traffic"
)

func init() {
	register(Experiment{
		ID:    "slo",
		Title: "Open-loop SLO sweep: offered load 0.3→0.95, tail latency and per-tenant fairness",
		Run:   runSLO,
		Check: checkSLO,
	})
}

// sloHeadline accepts the per-(load, policy) entries, not the per-class
// ones.
func sloHeadline(e BenchEntry) bool { return e.Labels["class"] == "" }

// checkSLO: one headline entry per (load, policy) plus one per tenant
// class; every point completed requests; admission accounting
// balances.
func checkSLO(d *BenchDoc) []string {
	points := len(sloLoads(d.Quick)) * len(sloPolicies(d.Quick))
	v := d.wantEntries(points * (1 + len(sloTraffic(1, 0).Classes)))
	v = append(v, d.positive(sloHeadline, "completed", "p99_ms")...)
	for _, e := range d.Entries {
		m := e.Metrics
		if sloHeadline(e) && m["arrivals"] != m["admitted"]+m["rejected"] {
			v = append(v, fmt.Sprintf("%s: arrivals %g != admitted %g + rejected %g",
				e.Key, m["arrivals"], m["admitted"], m["rejected"]))
		}
	}
	return v
}

// sloCapacity is the Table I machine's aggregate single-lane compute
// rate in work units/ms (10 fast × 2.33 + 10 slow × 1.21): the
// denominator that turns an offered-load fraction into arrival rates.
const sloCapacity = 35.4

// sloTraffic is the sweep's colocation scenario: two latency-critical
// tenants (a bursty MMPP web frontend with an admission cap and a
// steady Poisson API) sharing the machine with a diurnal batch tenant.
// Rates are sized so load=1 offers the machine its full compute
// capacity; the batch class carries 40% of the bytes in requests 10×
// longer than web's.
func sloTraffic(load float64, horizonMs int64) *traffic.Spec {
	rate := func(share, meanWork float64) float64 { return share * sloCapacity * 1000 / meanWork }
	return &traffic.Spec{
		Name:      "colo",
		HorizonMs: horizonMs,
		Load:      load,
		Classes: []traffic.ClassSpec{
			{
				Name: "web", Profile: "hotspot", MeanWork: 600, SLOMs: 900, MaxInSystem: 24,
				Arrival: traffic.ArrivalSpec{Process: traffic.ProcessMMPP, RatePerSec: rate(0.40, 600)},
			},
			{
				Name: "api", Profile: "srad", MeanWork: 300, SLOMs: 500,
				Arrival: traffic.ArrivalSpec{Process: traffic.ProcessPoisson, RatePerSec: rate(0.20, 300)},
			},
			{
				Name: "batch", Profile: "jacobi", MeanWork: 6000,
				Arrival: traffic.ArrivalSpec{Process: traffic.ProcessDiurnal, RatePerSec: rate(0.40, 6000)},
			},
		},
	}
}

// sloLoads returns the offered-load grid.
func sloLoads(quick bool) []float64 {
	if quick {
		return []float64{0.30, 0.80}
	}
	return []float64{0.30, 0.50, 0.70, 0.85, 0.95}
}

// sloPolicies returns the policy set the sweep compares.
func sloPolicies(quick bool) []string {
	if quick {
		return []string{PolicyCFS, PolicyDikeAF}
	}
	return []string{PolicyCFS, PolicyDIO, PolicyDike, PolicyDikeAF}
}

// runSLO sweeps offered load × policy over the colocation scenario and
// reports worst-tenant tail latency, SLO violations, admission behaviour
// and per-tenant fairness. Each (load, policy) point is a headline bench
// entry keyed "load/policy", followed by one entry per tenant class
// keyed "load/policy/class".
func runSLO(optsIn Options) (*Report, error) {
	opts := optsIn.withDefaults()
	horizon := int64(12_000)
	if opts.Quick {
		horizon = 4_000
	}
	doc := newBenchDoc("slo", opts)
	doc.HorizonMs = horizon
	t := &Table{
		Title:  "Open-loop colocation: worst-tenant tail latency and per-tenant fairness",
		Header: []string{"load", "policy", "arrivals", "rejected", "p50", "p95", "p99", "viol%", "jain", "minmax"},
	}
	for _, load := range sloLoads(opts.Quick) {
		for _, pol := range sloPolicies(opts.Quick) {
			spec := RunSpec{
				Traffic: sloTraffic(load, horizon),
				Policy:  pol,
				Seed:    opts.Seed,
			}
			out, err := Run(context.Background(), spec)
			if err != nil {
				return nil, fmt.Errorf("slo %.2f/%s: %w", load, pol, err)
			}
			tr := out.Traffic
			p50, p95, p99, viol := worstTenant(tr.Classes)
			key := fmt.Sprintf("%.2f/%s", load, pol)
			doc.add(key, map[string]string{"policy": pol}, map[string]float64{
				"load": load, "arrivals": float64(tr.Arrivals), "admitted": float64(tr.Admitted),
				"rejected": float64(tr.Rejected), "completed": float64(tr.Completed),
				"p50_ms": p50, "p95_ms": p95, "p99_ms": p99, "violation_rate": viol,
				"fairness_jain": tr.FairnessJain, "fairness_minmax": tr.FairnessMinMax,
				"drained_at_ms": float64(tr.DrainedAtMs), "quanta": float64(out.Decisions),
			})
			for _, c := range tr.Classes {
				m := map[string]float64{
					"load": load, "arrivals": float64(c.Arrivals), "rejected": float64(c.Rejected),
					"completed": float64(c.Completed), "p50_ms": c.P50Ms, "p95_ms": c.P95Ms, "p99_ms": c.P99Ms,
					"mean_ms": c.MeanMs, "slowdown": c.Slowdown, "violation_rate": c.ViolationRate,
				}
				if c.SLOMs > 0 {
					m["slo_ms"] = c.SLOMs
				}
				doc.add(key+"/"+c.Name, map[string]string{"policy": pol, "class": c.Name}, m)
			}
			t.AddRow(fmt.Sprintf("%.2f", load), pol, tr.Arrivals, tr.Rejected,
				fmt.Sprintf("%.0f", p50), fmt.Sprintf("%.0f", p95), fmt.Sprintf("%.0f", p99),
				fmt.Sprintf("%.1f", 100*viol),
				fmt.Sprintf("%.4f", tr.FairnessJain), fmt.Sprintf("%.4f", tr.FairnessMinMax))
		}
	}
	notes := []string{
		fmt.Sprintf("seed %d, arrival horizon %dms; p50/p95/p99 are the worst latency-critical tenant's sojourn percentiles (ms, simulated)", opts.Seed, horizon),
	}
	if opts.Quick {
		notes = append(notes, "quick mode: loads {0.30, 0.80} on cfs and dike-af only")
	}
	return withBench(&Report{ID: "slo", Title: "Open-loop SLO sweep (offered load 0.3→0.95)", Tables: []*Table{t}, Notes: notes}, doc, opts.BenchDir)
}

// worstTenant folds per-class outcomes into the figures an SLO is judged
// on: the worst latency-critical class's sojourn percentiles, and the
// violation rate pooled over every SLO-carrying completion.
func worstTenant(classes []traffic.ClassResult) (p50, p95, p99, violationRate float64) {
	violations, sloCompleted := 0, 0
	for _, c := range classes {
		if c.SLOMs <= 0 {
			continue
		}
		violations += c.Violations
		sloCompleted += c.Completed
		p50, p95, p99 = max(p50, c.P50Ms), max(p95, c.P95Ms), max(p99, c.P99Ms)
	}
	if sloCompleted > 0 {
		violationRate = float64(violations) / float64(sloCompleted)
	}
	return p50, p95, p99, violationRate
}
