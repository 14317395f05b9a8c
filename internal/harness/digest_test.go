package harness

import (
	"reflect"
	"testing"

	"dike/internal/core"
	"dike/internal/fault"
	"dike/internal/machine"
	"dike/internal/workload"
)

func digestBaseSpec() RunSpec {
	return RunSpec{
		Workload: workload.MustTable2(6),
		Policy:   PolicyDike,
		Seed:     42,
		Scale:    0.25,
	}
}

func mustDigest(t *testing.T, s RunSpec) string {
	t.Helper()
	d, err := s.Digest()
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	return d
}

func TestSpecDigestEqualSpecsEqualDigests(t *testing.T) {
	a, b := mustDigest(t, digestBaseSpec()), mustDigest(t, digestBaseSpec())
	if a != b {
		t.Fatalf("identical specs digest differently: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("digest %q is not a hex sha256", a)
	}
}

func TestSpecDigestIgnoresObservers(t *testing.T) {
	base := mustDigest(t, digestBaseSpec())
	traced := digestBaseSpec()
	traced.TraceEvery = 250
	traced.OnProgress = func(Progress) {}
	if got := mustDigest(t, traced); got != base {
		t.Errorf("observers changed the digest: attaching a trace or progress hook must not split the cache")
	}
}

func TestSpecDigestResolvesDefaults(t *testing.T) {
	// nil configs and explicitly-default configs describe the same run.
	base := mustDigest(t, digestBaseSpec())

	explicit := digestBaseSpec()
	dcfg := core.DefaultConfig()
	explicit.DikeConfig = &dcfg
	mcfg := machine.DefaultConfig()
	explicit.MachineConfig = &mcfg
	if got := mustDigest(t, explicit); got != base {
		t.Errorf("explicit default configs digest differently from nil configs")
	}
	// So does Table I written out by hand as a spec.
	hand := digestBaseSpec()
	hcfg := machine.DefaultConfig()
	hcfg.Spec = twoPoolSpec()
	hand.MachineConfig = &hcfg
	if got := mustDigest(t, hand); got != base {
		t.Errorf("hand-written Table I spec digests differently from the default machine")
	}

	// A DikeConfig on a non-Dike policy is ignored by Run, so it must be
	// ignored by Digest too.
	cfs := digestBaseSpec()
	cfs.Policy = PolicyCFS
	cfsBase := mustDigest(t, cfs)
	cfs.DikeConfig = &dcfg
	if got := mustDigest(t, cfs); got != cfsBase {
		t.Errorf("DikeConfig changed a CFS run's digest, but Run never consults it")
	}
}

func TestSpecDigestChangesWithEveryResultField(t *testing.T) {
	base := mustDigest(t, digestBaseSpec())
	fcfg := fault.DefaultConfig()
	fcfg.Classes = fault.All
	fcfg2 := fcfg
	fcfg2.Seed = 99
	dcfg := core.DefaultConfig()
	dcfg.SwapSize = 4
	mcfg := machine.DefaultConfig()

	cases := []struct {
		name   string
		mutate func(*RunSpec)
	}{
		{"workload", func(s *RunSpec) { s.Workload = workload.MustTable2(7) }},
		{"policy", func(s *RunSpec) { s.Policy = PolicyDikeAF }},
		{"seed", func(s *RunSpec) { s.Seed = 43 }},
		{"scale", func(s *RunSpec) { s.Scale = 0.5 }},
		{"step", func(s *RunSpec) { s.Step = 2 }},
		{"maxtime", func(s *RunSpec) { s.MaxTime = 10_000 }},
		{"dike config", func(s *RunSpec) { s.DikeConfig = &dcfg }},
		{"fault plan", func(s *RunSpec) { s.Faults = &fcfg }},
	}
	seen := map[string]string{base: "base"}
	for _, tc := range cases {
		s := digestBaseSpec()
		tc.mutate(&s)
		d := mustDigest(t, s)
		if prev, dup := seen[d]; dup {
			t.Errorf("mutating %s collides with %s: digest %s", tc.name, prev, d)
		}
		seen[d] = tc.name
	}

	// Deeper mutations inside pointed-to configs must also change the key.
	s := digestBaseSpec()
	s.Faults = &fcfg
	withFaults := mustDigest(t, s)
	s.Faults = &fcfg2
	if mustDigest(t, s) == withFaults {
		t.Errorf("fault seed change did not change the digest")
	}
	s = digestBaseSpec()
	mcfg.Spec.Sockets[0].Cores[0].Physical++
	s.MachineConfig = &mcfg
	if mustDigest(t, s) == base {
		t.Errorf("machine config change did not change the digest")
	}
}

// TestMachineKeyCoversConfig: every machine.Config field must reach the
// digest key, or two configs differing only in it would share a digest.
func TestMachineKeyCoversConfig(t *testing.T) {
	key := reflect.TypeOf(machineKey{})
	cfg := reflect.TypeOf(machine.Config{})
	for i := 0; i < cfg.NumField(); i++ {
		if _, ok := key.FieldByName(cfg.Field(i).Name); !ok {
			t.Errorf("machine.Config.%s is missing from machineKey", cfg.Field(i).Name)
		}
	}
}

func TestSpecDigestRejectsInvalidSpec(t *testing.T) {
	if _, err := (RunSpec{Policy: PolicyDike}).Digest(); err == nil {
		t.Error("digest of a spec without a workload must fail")
	}
	if _, err := (RunSpec{Workload: workload.MustTable2(1), Policy: "nope"}).Digest(); err == nil {
		t.Error("digest of an unknown policy must fail")
	}
	noSpec := machine.DefaultConfig()
	noSpec.Spec = nil
	if _, err := (RunSpec{Workload: workload.MustTable2(1), Policy: PolicyCFS, MachineConfig: &noSpec}).Digest(); err == nil {
		t.Error("digest of a machine without a spec must fail")
	}
}
