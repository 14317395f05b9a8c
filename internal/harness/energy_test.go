package harness

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"strings"
	"testing"

	"dike/internal/platform"
	"dike/internal/power"
	"dike/internal/workload"
)

// TestDVFS8ExampleMatchesSpec: examples/machines/dvfs8.json must parse
// to exactly the spec the energy experiment builds in code — the file
// is documentation for the same machine, and a drifted copy would make
// `dikesim -machine examples/machines/dvfs8.json` silently simulate a
// different platform than `dikebench -exp energy`.
func TestDVFS8ExampleMatchesSpec(t *testing.T) {
	blob, err := os.ReadFile("../../examples/machines/dvfs8.json")
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := platform.ParseMachineSpec(blob)
	if err != nil {
		t.Fatal(err)
	}
	if want := dvfs8Spec(); !reflect.DeepEqual(parsed, want) {
		t.Fatalf("examples/machines/dvfs8.json diverged from dvfs8Spec():\n file: %+v\n code: %+v", parsed, want)
	}
}

// TestGateBenchEnergy: the energy Check passes the committed baseline,
// and flags an FPE tie at the tightest cap (strictly better is the bar),
// a missing fairness cell, and an empty document.
func TestGateBenchEnergy(t *testing.T) {
	e, err := Lookup("energy")
	if err != nil {
		t.Fatal(err)
	}
	pass := committedBaselines(t)["energy"].doc
	if v := e.Check(pass); len(v) != 0 {
		t.Fatalf("passing document gated: %v", v)
	}
	od := energyKey(18, PolicyDikeAF, power.GovernorOndemand)
	fg := energyKey(18, PolicyDikeAF, power.GovernorFairness)

	tie := cloneDoc(pass)
	entryMetrics(t, tie, fg)["fpe"] = entryMetrics(t, tie, od)["fpe"]
	if v := e.Check(tie); len(v) != 1 || !strings.Contains(v[0], "does not strictly beat") {
		t.Fatalf("FPE tie not flagged: %v", v)
	}
	missing := cloneDoc(pass)
	missing.entry(fg).Key = "18W/dike-af/other"
	if v := e.Check(missing); len(v) != 1 || !strings.Contains(v[0], "missing ondemand/fairness") {
		t.Fatalf("missing fairness cell not flagged: %v", v)
	}
	empty := cloneDoc(pass)
	empty.Entries = nil
	if v := e.Check(empty); len(v) == 0 {
		t.Fatal("empty document passed the gate")
	}
}

// TestGovernedRecordReplayDigest is the energy subsystem's round trip:
// a governed run — DVFS actuations and all — is recorded, replayed, and
// the full run digests (scheduler decisions + governor decision stream)
// must match byte-for-byte. The governor must also leave its mark: the
// governed digest differs from the same spec ungoverned.
func TestGovernedRecordReplayDigest(t *testing.T) {
	spec := RunSpec{
		Workload:      workload.MustTable2(1),
		Policy:        PolicyDikeAF,
		MachineConfig: dvfs8Machine(),
		Seed:          42,
		Scale:         0.05,
		Power:         &power.Config{Governor: power.GovernorFairness, CapWatts: 16},
	}
	out, log := recordRun(t, spec)
	if out.Power == nil || len(out.Power.Invocations) == 0 {
		t.Fatal("governed run recorded no governor invocations")
	}
	if out.EnergyJ <= 0 || out.EDP <= 0 {
		t.Fatalf("energy accounting missing: EnergyJ=%g EDP=%g", out.EnergyJ, out.EDP)
	}
	live := RunDigest(spec.Policy, out.History, nil, out.Power)

	rep, err := Replay(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Power == nil {
		t.Fatal("replay rebuilt no governor stats")
	}
	replayed := RunDigest(rep.Policy, rep.History, nil, rep.Power)
	if live != replayed {
		t.Fatalf("governed replay digest differs from live run:\nlive:\n%s\nreplay:\n%s", live, replayed)
	}

	// Same spec without the governor must not hash alike.
	bare := spec
	bare.Power = nil
	bareOut, err := Run(context.Background(), bare)
	if err != nil {
		t.Fatal(err)
	}
	if RunDigest(bare.Policy, bareOut.History, nil, bareOut.Power) == live {
		t.Fatal("governed and ungoverned runs digest identically")
	}

	// And the content addresses differ too: the governor config is part
	// of the spec's identity.
	d1, err := spec.Digest()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := bare.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Fatal("governed and ungoverned specs share a content address")
	}
}
