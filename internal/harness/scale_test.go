package harness

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestScaleExperimentQuick runs the trimmed CI grid end to end: every
// (point, policy) pair must produce a measurement that passes the
// experiment's Check, and the bench document must round-trip through
// LoadBench.
func TestScaleExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("scale sweep in -short mode")
	}
	e, err := Lookup("scale")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rep, err := e.Run(Options{Seed: 42, SweepScale: 0.015, Workers: 8, Quick: true, BenchDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rep.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "t1-40") || !strings.Contains(sb.String(), "2s2t-128") {
		t.Errorf("report missing grid points:\n%s", sb.String())
	}

	b, err := LoadBench(filepath.Join(dir, "BENCH_scale.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !b.Quick || b.Seed != 42 || b.Experiment != "scale" {
		t.Errorf("bench doc header = %s quick %v seed %d", b.Experiment, b.Quick, b.Seed)
	}
	if v := e.Check(b); len(v) != 0 {
		t.Errorf("quick grid fails its own check: %v", v)
	}
	seen := map[string]bool{}
	for _, ent := range b.Entries {
		seen[ent.Key] = true
	}
	if len(seen) != len(b.Entries) {
		t.Errorf("duplicate entry keys: %d unique of %d", len(seen), len(b.Entries))
	}
}

// TestScaleGridShape pins the sweep grid: the full grid reaches 1024
// logical cores across 8 sockets and 4 core types, quick mode stays at
// or below 128, and every machine config validates.
func TestScaleGridShape(t *testing.T) {
	full := scaleGrid(false)
	maxLogical, maxSockets, maxTypes := 0, 0, 0
	for _, p := range full {
		if err := p.cfg.Validate(); err != nil {
			t.Errorf("point %s config invalid: %v", p.name, err)
		}
		if got := p.cfg.Spec.TotalLogical(); got != p.logical {
			t.Errorf("point %s declares %d logical cores, spec has %d", p.name, p.logical, got)
		}
		if p.logical > maxLogical {
			maxLogical = p.logical
		}
		if p.sockets > maxSockets {
			maxSockets = p.sockets
		}
		if p.coreTypes > maxTypes {
			maxTypes = p.coreTypes
		}
	}
	if maxLogical != 1024 || maxSockets != 8 || maxTypes != 4 {
		t.Errorf("full grid tops out at %d cores / %d sockets / %d types, want 1024/8/4",
			maxLogical, maxSockets, maxTypes)
	}
	for _, p := range scaleGrid(true) {
		if p.logical > 128 {
			t.Errorf("quick grid includes %s (%d logical cores)", p.name, p.logical)
		}
	}
}

// TestCompareBenchScaleSkipsMissing: points only one side measured (a
// quick run vs a full baseline, or vice versa) are not regressions; a
// shared point more than 25% slower is.
func TestCompareBenchScaleSkipsMissing(t *testing.T) {
	e := gatesOnly(t, "scale")
	cur := metricDoc("scale", "ns_per_quantum", []string{"t1-40/dike", "8s4t-1024/dike"}, 500, 9e9)
	base := metricDoc("scale", "ns_per_quantum", []string{"t1-40/dike", "t1-40/cfs"}, 450, 100)
	if regs, err := e.Gate(cur, base); err != nil || len(regs) != 0 {
		t.Errorf("missing-point comparison reported %v %v", regs, err)
	}
	base.Entries[0].Metrics["ns_per_quantum"] = 100
	regs, err := e.Gate(cur, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.HasPrefix(regs[0], "t1-40/dike: ns_per_quantum") {
		t.Errorf("want one t1-40/dike regression, got %v", regs)
	}
}
