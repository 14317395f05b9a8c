package traffic

import (
	"math"
	"sort"

	"dike/internal/sim"
	"dike/internal/stats"
)

// ClassResult is one tenant class's outcome.
type ClassResult struct {
	// Name and SLOMs echo the class spec.
	Name  string  `json:"name"`
	SLOMs float64 `json:"slo_ms,omitempty"`
	// Arrivals = Admitted + Rejected; Admitted = Completed + Killed once
	// the run has drained.
	Arrivals  int `json:"arrivals"`
	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected,omitempty"`
	Completed int `json:"completed"`
	Killed    int `json:"killed,omitempty"`
	// Sojourn-time distribution of completed requests, ms (arrival to
	// finish, queueing included).
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
	// Violations counts completed requests whose sojourn exceeded SLOMs;
	// ViolationRate is their fraction of completions. Zero for batch
	// classes (no SLO).
	Violations    int     `json:"violations,omitempty"`
	ViolationRate float64 `json:"violation_rate"`
	// MeanServiceMs is the mean uncontended service time of the class's
	// completed requests — demand at the fastest core's speed — and
	// Slowdown the ratio of observed to ideal mean sojourn. Slowdown is
	// the per-tenant fairness input: equal (weight-normalized) slowdowns
	// mean the machine degraded every tenant equally.
	MeanServiceMs float64 `json:"mean_service_ms"`
	Slowdown      float64 `json:"slowdown"`
}

// Result is a finished traffic run's scenario-level outcome.
type Result struct {
	// Name and Load echo the spec.
	Name string  `json:"name"`
	Load float64 `json:"load"`
	// Totals across classes.
	Arrivals  int `json:"arrivals"`
	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected,omitempty"`
	Completed int `json:"completed"`
	Killed    int `json:"killed,omitempty"`
	// FairnessJain is Jain's index over the classes' weight-normalized
	// inverse slowdowns: 1 when every tenant is slowed equally, 1/N when
	// one tenant absorbs all the contention. FairnessMinMax is the
	// min/max ratio of the same quantity — the harsher tail view.
	FairnessJain   float64 `json:"fairness_jain"`
	FairnessMinMax float64 `json:"fairness_minmax"`
	// DrainedAtMs is when the last request left the system.
	DrainedAtMs int64 `json:"drained_at_ms"`
	// Classes holds per-tenant results in spec order.
	Classes []ClassResult `json:"classes"`
}

// result folds the accumulated class aggregates into a Result.
func (r *Run) result(endAt sim.Time) *Result {
	res := &Result{
		Name:        r.spec.Label(),
		Load:        r.spec.load(),
		DrainedAtMs: int64(endAt),
	}
	// Per-class stats plus the weight-normalized inverse slowdowns the
	// fairness aggregates are built from.
	var shares []float64
	for ci, c := range r.spec.Classes {
		ag := r.agg[ci]
		cr := ClassResult{
			Name:      c.Name,
			SLOMs:     c.SLOMs,
			Arrivals:  ag.admitted + ag.rejected,
			Admitted:  ag.admitted,
			Rejected:  ag.rejected,
			Completed: ag.completed,
			Killed:    ag.killed,
		}
		if n := len(ag.sojourns); n > 0 {
			s := append([]float64(nil), ag.sojourns...)
			sort.Float64s(s)
			sum := 0.0
			for _, v := range s {
				sum += v
			}
			cr.MeanMs = sum / float64(n)
			cr.P50Ms = stats.Percentile(s, 0.50)
			cr.P95Ms = stats.Percentile(s, 0.95)
			cr.P99Ms = stats.Percentile(s, 0.99)
			cr.MaxMs = s[n-1]
			if c.SLOMs > 0 {
				for _, v := range s {
					if v > c.SLOMs {
						cr.Violations++
					}
				}
				cr.ViolationRate = float64(cr.Violations) / float64(n)
			}
			if r.maxSpeed > 0 {
				cr.MeanServiceMs = ag.workDone / float64(n) / r.maxSpeed
			}
			if cr.MeanServiceMs > 0 {
				cr.Slowdown = cr.MeanMs / cr.MeanServiceMs
			}
			if cr.Slowdown > 0 {
				// A weight-w tenant is entitled to 1/w of the slowdown, so
				// its normalized slowdown is w*Slowdown and its share the
				// inverse: equal shares when slowdowns are inversely
				// proportional to weight.
				w := c.Weight
				if w == 0 {
					w = 1
				}
				shares = append(shares, 1/(w*cr.Slowdown))
			}
		}
		res.Arrivals += cr.Arrivals
		res.Admitted += cr.Admitted
		res.Rejected += cr.Rejected
		res.Completed += cr.Completed
		res.Killed += cr.Killed
		res.Classes = append(res.Classes, cr)
	}
	res.FairnessJain, res.FairnessMinMax = fairness(shares)
	return res
}

// fairness returns Jain's index and the min/max ratio of the given
// shares. With fewer than two measurable tenants both degenerate to 1.
func fairness(shares []float64) (jain, minmax float64) {
	if len(shares) < 2 {
		return 1, 1
	}
	sum, sumSq := 0.0, 0.0
	min, max := math.Inf(1), math.Inf(-1)
	for _, x := range shares {
		sum += x
		sumSq += x * x
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	if sumSq <= 0 || max <= 0 {
		return 1, 1
	}
	return sum * sum / (float64(len(shares)) * sumSq), min / max
}
