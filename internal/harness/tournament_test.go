package harness

import (
	"testing"

	"dike/internal/serve/api"
	"dike/internal/traffic"
)

// servedAndLocal scores one two-SLO-class traffic outcome both ways: as
// a local run (integer violation counts) and as a served run (the wire's
// per-class violation rates). A batch class without an SLO rides along
// and must be ignored by both.
func servedAndLocal(t *testing.T, v1, n1, v2, n2 int) (local, served TournamentMeasure) {
	t.Helper()
	counts := [][3]int{{1, v1, n1}, {1, v2, n2}, {0, 0, 5}} // slo?, violations, completed
	var lc []traffic.ClassResult
	var sc []api.TrafficClassResult
	for i, c := range counts {
		slo := float64(c[0] * 100)
		rate := 0.0
		if c[0] == 1 && c[2] > 0 {
			rate = float64(c[1]) / float64(c[2])
		}
		p := float64(10 * (i + 1))
		lc = append(lc, traffic.ClassResult{SLOMs: slo, Completed: c[2], Violations: c[1], ViolationRate: rate, P50Ms: p, P95Ms: 2 * p, P99Ms: 3 * p})
		sc = append(sc, api.TrafficClassResult{SLOMs: slo, Completed: c[2], ViolationRate: rate, P50Ms: p, P95Ms: 2 * p, P99Ms: 3 * p})
	}
	local = tournamentMeasure(0.5, "dike", &RunOutput{Traffic: &traffic.Result{Classes: lc}})
	served, err := tournamentMeasureFromAPI(0.5, "dike", &api.RunResult{Traffic: &api.TrafficResult{Classes: sc}})
	if err != nil {
		t.Fatal(err)
	}
	return local, served
}

// TestServedTournamentCellScoresLikeLocal: a served cell must pool the
// same integer violation counts a local cell does. Pooling the wire's
// rates as floats instead gives 0.6521739130434782 for 0 of 1 and 15 of
// 22 violations, one ulp off the local 15/23.
func TestServedTournamentCellScoresLikeLocal(t *testing.T) {
	local, served := servedAndLocal(t, 0, 1, 15, 22)
	if want := 15.0 / 23.0; local.ViolationRate != want || served.ViolationRate != want {
		t.Fatalf("violation rate: local %v, served %v, want %v", local.ViolationRate, served.ViolationRate, want)
	}
	if served != local {
		t.Fatalf("served cell %+v != local %+v", served, local)
	}
	for n1 := 0; n1 <= 24; n1++ {
		for v1 := 0; v1 <= n1; v1++ {
			for n2 := 0; n2 <= 24; n2++ {
				for v2 := 0; v2 <= n2; v2++ {
					if l, s := servedAndLocal(t, v1, n1, v2, n2); l != s {
						t.Fatalf("%d/%d + %d/%d: served %v, local %v", v1, n1, v2, n2, s.ViolationRate, l.ViolationRate)
					}
				}
			}
		}
	}
}
