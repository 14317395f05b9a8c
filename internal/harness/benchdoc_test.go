package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dike/internal/power"
)

// baseline is one committed bench/BENCH_<id>_baseline.json: its bytes
// and the document they decode to.
type baseline struct {
	blob []byte
	doc  *BenchDoc
}

// committedBaselines reads every bench/ baseline, keyed by the
// experiment it names. The file name must name the same experiment.
func committedBaselines(t *testing.T) map[string]baseline {
	t.Helper()
	paths, err := filepath.Glob("../../bench/BENCH_*_baseline.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no baselines in bench/: %v", err)
	}
	out := make(map[string]baseline, len(paths))
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var d BenchDoc
		if err := json.Unmarshal(blob, &d); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if d.Schema != BenchSchema || filepath.Base(p) != "BENCH_"+d.Experiment+"_baseline.json" {
			t.Fatalf("%s: schema %q, experiment %q", p, d.Schema, d.Experiment)
		}
		out[d.Experiment] = baseline{blob, &d}
	}
	return out
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

// benchDiff says where the bench document got departs from the
// baseline want: nothing when the bytes are equal, else the header or
// the first entries (up to three) that differ, each named by its key.
func benchDiff(got, want []byte) []string {
	if bytes.Equal(got, want) {
		return nil
	}
	var g, w BenchDoc
	if err := json.Unmarshal(got, &g); err != nil {
		return []string{"document does not decode: " + err.Error()}
	}
	if err := json.Unmarshal(want, &w); err != nil {
		return []string{"baseline does not decode: " + err.Error()}
	}
	gh, wh := g, w
	gh.Entries, wh.Entries = nil, nil
	if !reflect.DeepEqual(gh, wh) {
		return []string{fmt.Sprintf("header %+v, baseline %+v", gh, wh)}
	}
	var v []string
	for i := 0; i < max(len(g.Entries), len(w.Entries)) && len(v) < 3; i++ {
		switch {
		case i >= len(w.Entries):
			v = append(v, g.Entries[i].Key+": not in the baseline")
		case i >= len(g.Entries):
			v = append(v, w.Entries[i].Key+": missing")
		case g.Entries[i].Key != w.Entries[i].Key:
			v = append(v, fmt.Sprintf("%s: baseline has %s here", g.Entries[i].Key, w.Entries[i].Key))
		case !reflect.DeepEqual(g.Entries[i], w.Entries[i]):
			v = append(v, g.Entries[i].Key+": "+entryDiff(g.Entries[i], w.Entries[i]))
		}
	}
	if len(v) == 0 {
		v = append(v, "same entries, different bytes")
	}
	return v
}

// entryDiff names where two entries with the same key differ: their
// labels, or the first metric (by name) that one lacks or holds
// differently.
func entryDiff(g, w BenchEntry) string {
	if !reflect.DeepEqual(g.Labels, w.Labels) {
		return fmt.Sprintf("labels %v, baseline %v", g.Labels, w.Labels)
	}
	var differ []string
	for k, wv := range w.Metrics {
		if gv, ok := g.Metrics[k]; !ok || gv != wv {
			differ = append(differ, k)
		}
	}
	for k := range g.Metrics {
		if _, ok := w.Metrics[k]; !ok {
			differ = append(differ, k)
		}
	}
	if len(differ) == 0 {
		return "metrics differ"
	}
	k := slices.Min(differ)
	gv, gok := g.Metrics[k]
	wv, wok := w.Metrics[k]
	switch {
	case !gok:
		return fmt.Sprintf("no %s, baseline %v", k, wv)
	case !wok:
		return fmt.Sprintf("%s = %v, not in the baseline", k, gv)
	}
	return fmt.Sprintf("%s = %v, baseline %v", k, gv, wv)
}

// TestBenchBaselinesPinned is the one pin on the bench experiments: each
// experiment with a baseline in bench/ runs at that file's seed and
// quick setting, and the document it writes must equal the file byte
// for byte and pass the experiment's Check. Every bench value is
// simulated, so any difference is a behaviour change: an intended one
// refreshes the baseline (bench/README.md).
func TestBenchBaselinesPinned(t *testing.T) {
	base := committedBaselines(t)
	for _, e := range Experiments() {
		if e.Check != nil && base[e.ID].doc == nil {
			t.Errorf("no committed baseline for bench experiment %q", e.ID)
		}
	}
	ids := make([]string, 0, len(base))
	for id := range base {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			want := base[id]
			e, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			rep, err := e.Run(Options{Seed: want.doc.Seed, Quick: want.doc.Quick, BenchDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, "BENCH_"+id+".json"))
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range benchDiff(got, want.blob) {
				t.Errorf("differs from bench/BENCH_%s_baseline.json: %s", id, d)
			}
			for _, v := range e.Check(rep.Bench) {
				t.Errorf("Check: %s", v)
			}
			keys := map[string]bool{}
			for _, ent := range rep.Bench.Entries {
				if keys[ent.Key] {
					t.Errorf("duplicate entry key %q", ent.Key)
				}
				keys[ent.Key] = true
			}
			switch id {
			case "tournament":
				// The acceptance grid: meta beats the worst fixed policy
				// and holds its regret bar on the full 12 s grid, not
				// only on the quick one.
				if rep.Bench.Quick || rep.Bench.HorizonMs != 12000 {
					t.Errorf("grid ran quick=%v horizon %dms, want the full 12 s grid", rep.Bench.Quick, rep.Bench.HorizonMs)
				}
			case "slo":
				for _, ent := range rep.Bench.Entries {
					if m := ent.Metrics; sloHeadline(ent) && !(0 < m["p50_ms"] && m["p50_ms"] <= m["p95_ms"] && m["p95_ms"] <= m["p99_ms"]) {
						t.Errorf("%s: percentiles not monotone: %g/%g/%g", ent.Key, m["p50_ms"], m["p95_ms"], m["p99_ms"])
					}
				}
			}
		})
	}
}

// TestBenchGates is the planted-regression table. It reads only the
// committed baselines, so it runs no simulation. Pin cases move one
// metric of a baseline by one ulp and require the byte compare to name
// exactly that entry ("past"), or leave it as committed and require the
// re-encoded document to equal the file ("inside"). Check cases push
// each property of an experiment's Check just past its bar (exactly
// that violation is reported) and hold it just inside (nothing is).
func TestBenchGates(t *testing.T) {
	base := committedBaselines(t)
	type plant struct {
		name string
		exp  string
		// pin judges the mutated document by the byte compare against
		// the committed file; otherwise by the experiment's Check.
		pin    bool
		mutate func(d *BenchDoc)
		want   string // the single expected violation; "" for none
	}
	var cases []plant

	// One pinned metric per experiment, on the first entry carrying it.
	for _, pinned := range [][2]string{{"energy", "edp"}, {"scale", "fairness"}, {"slo", "p99_ms"}, {"tournament", "p99_ms"}} {
		id, metric := pinned[0], pinned[1]
		d := base[id].doc
		if d == nil {
			t.Fatalf("no committed %s baseline", id)
		}
		i := slices.IndexFunc(d.Entries, func(e BenchEntry) bool { return e.Metrics[metric] > 0 })
		if i < 0 {
			t.Fatalf("%s baseline has no entry carrying %s", id, metric)
		}
		key := d.Entries[i].Key
		cases = append(cases,
			plant{name: id + "/" + metric + "/past", exp: id, pin: true, want: key + ": " + metric,
				mutate: func(d *BenchDoc) {
					m := entryMetrics(t, d, key)
					m[metric] = math.Nextafter(m[metric], math.Inf(1))
				}},
			plant{name: id + "/" + metric + "/inside", exp: id, pin: true, mutate: func(*BenchDoc) {}})
	}
	// The entry count, derived from the grid functions.
	for _, e := range Experiments() {
		if e.Check != nil {
			cases = append(cases, plant{name: e.ID + "/entry-count", exp: e.ID, want: "entries, want",
				mutate: func(d *BenchDoc) { d.Entries = d.Entries[:len(d.Entries)-1] }})
		}
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
		plant{name: "tournament/meta-vs-worst-fixed/past", exp: "tournament", want: "does not beat worst fixed",
			mutate: func(d *BenchDoc) { entryMetrics(t, d, "0.30/meta")["p99_ms"] = worstFixed(d, 0.30) }},
		plant{name: "tournament/meta-vs-worst-fixed/inside", exp: "tournament",
			mutate: func(d *BenchDoc) { entryMetrics(t, d, "0.30/meta")["p99_ms"] = worstFixed(d, 0.30) - 1 }},
		plant{name: "tournament/meta-regret/past", exp: "tournament", want: "regret",
			mutate: func(d *BenchDoc) { entryMetrics(t, d, "0.50/meta")["regret"] = tournamentRegretMax + 0.001 }},
		plant{name: "tournament/meta-regret/inside", exp: "tournament",
			mutate: func(d *BenchDoc) { entryMetrics(t, d, "0.50/meta")["regret"] = tournamentRegretMax }},
		plant{name: "tournament/two-winners", exp: "tournament", want: "2 winners, want 1",
			mutate: func(d *BenchDoc) { entryMetrics(t, d, "0.70/cfs")["winner"] = 1 }},
		plant{name: "tournament/meta-oracle", exp: "tournament", want: "meta is oracle-eligible",
			mutate: func(d *BenchDoc) { entryMetrics(t, d, "0.85/meta")["oracle"] = 1 }},
		plant{name: "energy/fpe-tie/past", exp: "energy", want: "does not strictly beat ondemand",
			mutate: fpe(power.GovernorFairness, 0)},
		plant{name: "energy/fpe-tie/inside", exp: "energy", mutate: fpe(power.GovernorFairness, 1e-9)},
		plant{name: "energy/tightest-cell-missing", exp: "energy", want: "missing ondemand/fairness dike-af cells",
			mutate: func(d *BenchDoc) {
				d.entry(energyKey(18, PolicyDikeAF, power.GovernorFairness)).Key = "18W/dike-af/other"
			}},
		plant{name: "energy/governor-not-invoked", exp: "energy", want: "invocations = 0",
			mutate: func(d *BenchDoc) { entryMetrics(t, d, "30W/dike-ea/ondemand")["invocations"] = 0 }},
		plant{name: "energy/no-joules", exp: "energy", want: "energy_j = 0",
			mutate: func(d *BenchDoc) { entryMetrics(t, d, "0W/dike-af/")["energy_j"] = 0 }},
		plant{name: "slo/arrival-accounting/past", exp: "slo", want: "arrivals 150 != admitted 146 + rejected 0",
			mutate: func(d *BenchDoc) { entryMetrics(t, d, "0.80/cfs")["arrivals"] = 150 }},
		plant{name: "slo/arrival-accounting/inside", exp: "slo",
			mutate: func(d *BenchDoc) { m := entryMetrics(t, d, "0.80/cfs"); m["arrivals"], m["rejected"] = 150, 4 }},
	)

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, err := Lookup(c.exp)
			if err != nil {
				t.Fatal(err)
			}
			cur := cloneDoc(base[c.exp].doc)
			c.mutate(cur)
			var v []string
			if c.pin {
				blob, err := cur.encode()
				if err != nil {
					t.Fatal(err)
				}
				v = benchDiff(blob, base[c.exp].blob)
			} else {
				v = e.Check(cur)
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
