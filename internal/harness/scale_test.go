package harness

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestScaleExperimentQuick runs the trimmed CI grid end to end: every
// (point, policy) pair must produce a measurement, and the BenchOut
// document must round-trip through LoadBenchScale.
func TestScaleExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("scale sweep in -short mode")
	}
	e, err := Lookup("scale")
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "BENCH_scale.json")
	rep, err := e.Run(Options{Seed: 42, SweepScale: 0.015, Workers: 8, Quick: true, BenchOut: out})
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

	b, err := LoadBenchScale(out)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Quick || b.Seed != 42 {
		t.Errorf("bench doc header = quick %v seed %d", b.Quick, b.Seed)
	}
	wantEntries := 2 * len(scalePolicies) // two quick points x policies
	if len(b.Entries) != wantEntries {
		t.Fatalf("bench doc has %d entries, want %d", len(b.Entries), wantEntries)
	}
	seen := map[string]bool{}
	for _, ent := range b.Entries {
		seen[ent.Point+"/"+ent.Policy] = true
		if ent.Quanta <= 0 {
			t.Errorf("%s/%s measured %d quanta", ent.Point, ent.Policy, ent.Quanta)
		}
		if ent.NsPerQuantum <= 0 {
			t.Errorf("%s/%s measured %v ns/quantum", ent.Point, ent.Policy, ent.NsPerQuantum)
		}
	}
	if len(seen) != wantEntries {
		t.Errorf("duplicate (point, policy) entries: %d unique of %d", len(seen), wantEntries)
	}

	// Self-comparison is regression-free; a halved-tolerance baseline at
	// 1/3 the cost flags every shared entry.
	if regs := CompareBenchScale(b, b, 0.25); len(regs) != 0 {
		t.Errorf("self-comparison reported regressions: %v", regs)
	}
	cheap := *b
	cheap.Entries = append([]BenchScaleEntry(nil), b.Entries...)
	for i := range cheap.Entries {
		cheap.Entries[i].NsPerQuantum /= 3
	}
	if regs := CompareBenchScale(b, &cheap, 0.25); len(regs) != len(b.Entries) {
		t.Errorf("regression check flagged %d of %d entries", len(regs), len(b.Entries))
	}
}

// TestCompareBenchScaleSkipsMissing: points only one side measured (a
// quick run vs a full baseline, or vice versa) are not regressions.
func TestCompareBenchScaleSkipsMissing(t *testing.T) {
	cur := &BenchScale{Schema: BenchScaleSchema, Entries: []BenchScaleEntry{
		{Point: "t1-40", Policy: "dike", NsPerQuantum: 500},
		{Point: "8s4t-1024", Policy: "dike", NsPerQuantum: 9e9},
	}}
	base := &BenchScale{Schema: BenchScaleSchema, Entries: []BenchScaleEntry{
		{Point: "t1-40", Policy: "dike", NsPerQuantum: 450},
		{Point: "t1-40", Policy: "cfs", NsPerQuantum: 100},
	}}
	if regs := CompareBenchScale(cur, base, 0.25); len(regs) != 0 {
		t.Errorf("missing-point comparison reported %v", regs)
	}
	base.Entries[0].NsPerQuantum = 100
	regs := CompareBenchScale(cur, base, 0.25)
	if len(regs) != 1 || !strings.Contains(regs[0], "t1-40/dike") {
		t.Errorf("want one t1-40/dike regression, got %v", regs)
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
