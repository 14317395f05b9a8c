package harness

import (
	"errors"
	"maps"
	"strings"
	"testing"

	"dike/internal/power"
)

// committedBaselines reads the bench/ baselines CI gates against.
func committedBaselines(t *testing.T) map[string]*BenchDoc {
	t.Helper()
	docs, err := LoadBaselines("../../bench")
	if err != nil {
		t.Fatal(err)
	}
	return docs
}

// cloneDoc deep-copies a document so a case can mutate it.
func cloneDoc(d *BenchDoc) *BenchDoc {
	c := *d
	c.Entries = make([]BenchEntry, len(d.Entries))
	for i, e := range d.Entries {
		c.Entries[i] = BenchEntry{Key: e.Key, Labels: maps.Clone(e.Labels), Metrics: maps.Clone(e.Metrics)}
	}
	return &c
}

// entryMetrics returns the metric map of the entry with the given key.
func entryMetrics(t *testing.T, d *BenchDoc, key string) map[string]float64 {
	t.Helper()
	e := d.entry(key)
	if e == nil {
		t.Fatalf("%s document has no entry %q", d.Experiment, key)
	}
	return e.Metrics
}

// TestBenchGates is the planted-regression table. It reads only the
// committed baselines, so it runs no simulation: each declared metric
// gate and each Check property is pushed just past its bar (exactly
// that violation is reported) and held just inside it (nothing is).
func TestBenchGates(t *testing.T) {
	base := committedBaselines(t)
	for _, e := range Experiments() {
		if (e.Gates != nil || e.Check != nil) && base[e.ID] == nil {
			t.Errorf("no committed baseline for gated experiment %q", e.ID)
		}
	}
	for id, d := range base {
		e, err := Lookup(id)
		if err != nil {
			t.Fatalf("baseline names an unregistered experiment: %v", err)
		}
		if v, err := e.Gate(d, d); err != nil || len(v) != 0 {
			t.Errorf("%s baseline does not pass its own gate: %v %v", id, err, v)
		}
	}

	type plant struct {
		name string
		exp  string
		// mutate edits the current document; the baseline is the
		// committed one unless self is set, in which case the mutated
		// document is gated against itself so only Check can fire.
		mutate func(d *BenchDoc)
		self   bool
		want   string // the single expected violation; "" for none
	}
	var cases []plant

	// Every declared metric gate, on the first entry it covers.
	for _, e := range Experiments() {
		d := base[e.ID]
		if d == nil {
			continue
		}
		for _, g := range e.Gates {
			var key string
			for _, ent := range d.Entries {
				if (g.Where == nil || g.Where(ent)) && ent.Metrics[g.Metric] > 0 {
					key = ent.Key
					break
				}
			}
			if key == "" {
				t.Fatalf("%s baseline has no entry gated on %s", e.ID, g.Metric)
			}
			step := func(over float64) func(*BenchDoc) {
				return func(d *BenchDoc) {
					entryMetrics(t, d, key)[g.Metric] *= 1 + g.Tolerance + over
				}
			}
			cases = append(cases,
				plant{name: e.ID + "/" + g.Metric + "/past", exp: e.ID, mutate: step(0.001), want: key + ": " + g.Metric},
				plant{name: e.ID + "/" + g.Metric + "/inside", exp: e.ID, mutate: step(-0.001)})
		}
		// The entry count, derived from the grid functions.
		cases = append(cases, plant{name: e.ID + "/entry-count", exp: e.ID, self: true, want: "entries, want",
			mutate: func(d *BenchDoc) { d.Entries = d.Entries[:len(d.Entries)-1] }})
	}

	worstFixed := func(d *BenchDoc, load float64) float64 {
		w := 0.0
		for _, pol := range tournamentPolicies(d.Quick) {
			if pol != PolicyMeta {
				w = max(w, entryMetrics(t, d, tournamentKey(load, pol))["p99_ms"])
			}
		}
		return w
	}
	fpe := func(gov string, delta float64) func(*BenchDoc) {
		return func(d *BenchDoc) {
			od := entryMetrics(t, d, energyKey(18, PolicyDikeAF, power.GovernorOndemand))
			entryMetrics(t, d, energyKey(18, PolicyDikeAF, gov))["fpe"] = od["fpe"] * (1 + delta)
		}
	}
	cases = append(cases,
		plant{name: "tournament/meta-vs-worst-fixed/past", exp: "tournament", self: true, want: "does not beat worst fixed",
			mutate: func(d *BenchDoc) { entryMetrics(t, d, "0.30/meta")["p99_ms"] = worstFixed(d, 0.30) }},
		plant{name: "tournament/meta-vs-worst-fixed/inside", exp: "tournament", self: true,
			mutate: func(d *BenchDoc) { entryMetrics(t, d, "0.30/meta")["p99_ms"] = worstFixed(d, 0.30) - 1 }},
		plant{name: "tournament/meta-regret/past", exp: "tournament", self: true, want: "regret",
			mutate: func(d *BenchDoc) { entryMetrics(t, d, "0.50/meta")["regret"] = tournamentRegretMax + 0.001 }},
		plant{name: "tournament/meta-regret/inside", exp: "tournament", self: true,
			mutate: func(d *BenchDoc) { entryMetrics(t, d, "0.50/meta")["regret"] = tournamentRegretMax }},
		plant{name: "tournament/two-winners", exp: "tournament", self: true, want: "2 winners, want 1",
			mutate: func(d *BenchDoc) { entryMetrics(t, d, "0.70/cfs")["winner"] = 1 }},
		plant{name: "tournament/meta-oracle", exp: "tournament", self: true, want: "meta is oracle-eligible",
			mutate: func(d *BenchDoc) { entryMetrics(t, d, "0.85/meta")["oracle"] = 1 }},
		plant{name: "energy/fpe-tie/past", exp: "energy", self: true, want: "does not strictly beat ondemand",
			mutate: fpe(power.GovernorFairness, 0)},
		plant{name: "energy/fpe-tie/inside", exp: "energy", self: true, mutate: fpe(power.GovernorFairness, 1e-9)},
		plant{name: "energy/tightest-cell-missing", exp: "energy", self: true, want: "missing ondemand/fairness dike-af cells",
			mutate: func(d *BenchDoc) {
				d.entry(energyKey(18, PolicyDikeAF, power.GovernorFairness)).Key = "18W/dike-af/other"
			}},
		plant{name: "energy/governor-not-invoked", exp: "energy", self: true, want: "invocations = 0",
			mutate: func(d *BenchDoc) { entryMetrics(t, d, "30W/dike-ea/ondemand")["invocations"] = 0 }},
		plant{name: "energy/no-joules", exp: "energy", self: true, want: "energy_j = 0",
			mutate: func(d *BenchDoc) { entryMetrics(t, d, "0W/dike-af/")["energy_j"] = 0 }},
		plant{name: "slo/arrival-accounting/past", exp: "slo", self: true, want: "arrivals 150 != admitted 146 + rejected 0",
			mutate: func(d *BenchDoc) { entryMetrics(t, d, "0.80/cfs")["arrivals"] = 150 }},
		plant{name: "slo/arrival-accounting/inside", exp: "slo", self: true,
			mutate: func(d *BenchDoc) { m := entryMetrics(t, d, "0.80/cfs"); m["arrivals"], m["rejected"] = 150, 4 }},
		plant{name: "slo/class-p99-not-gated", exp: "slo",
			mutate: func(d *BenchDoc) { entryMetrics(t, d, "0.30/cfs/batch")["p99_ms"] *= 10 }},
		plant{name: "scale/unmeasured-entry-skipped", exp: "scale",
			mutate: func(d *BenchDoc) { d.Entries[0].Key = "1024-core/dike"; d.Entries[0].Metrics["ns_per_quantum"] = 9e9 }},
	)

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, err := Lookup(c.exp)
			if err != nil {
				t.Fatal(err)
			}
			cur := cloneDoc(base[c.exp])
			c.mutate(cur)
			against := base[c.exp]
			if c.self {
				against = cur
			}
			v, err := e.Gate(cur, against)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case c.want == "" && len(v) != 0:
				t.Errorf("want no violation, got %q", v)
			case c.want != "" && (len(v) != 1 || !strings.Contains(v[0], c.want)):
				t.Errorf("want exactly one violation containing %q, got %q", c.want, v)
			}
		})
	}
}

// TestGateRefusesDifferentRun: a document from another run — another
// seed, grid or experiment — or one sharing no entry key with the
// baseline is not compared cell by cell; the gate fails with
// ErrNotComparable instead of reporting seed noise as regressions or
// passing without comparing anything.
func TestGateRefusesDifferentRun(t *testing.T) {
	base := committedBaselines(t)
	e, err := Lookup("slo")
	if err != nil {
		t.Fatal(err)
	}
	seed7, err := e.Run(Options{Seed: 7, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := e.Gate(seed7.Bench, base["slo"]); !errors.Is(err, ErrNotComparable) || !strings.Contains(err.Error(), "seed") {
		t.Errorf("seed-7 run vs seed-42 baseline: err %v, violations %q; want ErrNotComparable naming the seed", err, v)
	}

	for name, mutate := range map[string]func(*BenchDoc){
		"experiment": func(d *BenchDoc) { d.Experiment = "tournament" },
		"quick":      func(d *BenchDoc) { d.Quick = false },
		"horizon_ms": func(d *BenchDoc) { d.HorizonMs = 12000 },
		"scale":      func(d *BenchDoc) { d.Scale = 0.1 },
		"no entry key in common": func(d *BenchDoc) {
			for i := range d.Entries {
				d.Entries[i].Key = strings.ReplaceAll(d.Entries[i].Key, "/", ":")
			}
		},
	} {
		cur := cloneDoc(base["slo"])
		mutate(cur)
		if _, err := e.Gate(cur, base["slo"]); !errors.Is(err, ErrNotComparable) || !strings.Contains(err.Error(), name) {
			t.Errorf("%s differs: err %v, want ErrNotComparable naming it", name, err)
		}
	}
}
