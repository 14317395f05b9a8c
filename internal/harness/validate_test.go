package harness

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"dike/internal/core"
	"dike/internal/fault"
	"dike/internal/machine"
	"dike/internal/platform"
	"dike/internal/power"
	"dike/internal/tournament"
	"dike/internal/traffic"
)

// TestValidateRejectsNonFinite feeds NaN, +Inf and -Inf into every
// float field of every config a RunSpec carries, one field at a time,
// and requires the owning Validate to reject each. A range check
// written on the bad side (x <= 0) lets NaN through; one written as the
// negation of the valid range (!(x > 0)) does not.
func TestValidateRejectsNonFinite(t *testing.T) {
	read := func(path string) []byte {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	big, err := platform.ParseMachineSpec(read("../../examples/machines/big4x4.json"))
	if err != nil {
		t.Fatal(err)
	}
	colo, err := traffic.ParseSpec(read("../../examples/traffic/colo.json"))
	if err != nil {
		t.Fatal(err)
	}
	// big4x4 has per-socket controllers, DVFS levels and a distance
	// matrix; Table I covers the shared controller.
	mcfg := machine.DefaultConfig()
	table1 := mcfg.Spec
	mcfg.Spec = big
	faults := fault.DefaultConfig()
	dike := core.DefaultConfig()
	meta := tournament.DefaultConfig()
	meta.Candidates = DefaultMetaCandidates
	capped := power.Config{Governor: power.GovernorFairness, CapWatts: 18}
	thermal := power.Config{Governor: power.GovernorThermal, ThermalR: 1.5, ThermalAlpha: 0.3, ThermalHot: 50, ThermalCool: 40}

	cases := []struct {
		name     string
		target   any // a pointer to the floats to corrupt
		validate func() error
	}{
		{"machine.Config", &mcfg, func() error { return mcfg.Validate() }},
		{"platform.MachineSpec.SharedMem", table1.SharedMem, table1.Validate},
		{"traffic.Spec", colo, colo.Validate},
		{"fault.Config", &faults, func() error { return faults.Validate() }},
		{"core.Config", &dike, func() error { return dike.Validate() }},
		{"tournament.Config", &meta, func() error { return meta.Validate() }},
		{"power.Config/fairness", &capped, func() error { return capped.Validate() }},
		{"power.Config/thermal", &thermal, func() error { return thermal.Validate() }},
	}
	for _, tc := range cases {
		if err := tc.validate(); err != nil {
			t.Fatalf("%s: baseline rejected: %v", tc.name, err)
		}
		fields := 0
		eachFloat(reflect.ValueOf(tc.target), tc.name, func(path string, f reflect.Value) {
			fields++
			was := f.Float()
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				f.SetFloat(bad)
				if tc.validate() == nil {
					t.Errorf("%s = %g accepted", path, bad)
				}
			}
			f.SetFloat(was)
		})
		if fields == 0 {
			t.Errorf("%s: no float fields visited", tc.name)
		}
	}
}

// eachFloat calls visit with every float64 reachable from v through
// pointers, slices and exported struct fields, named by its path.
func eachFloat(v reflect.Value, path string, visit func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.Float64:
		visit(path, v)
	case reflect.Pointer:
		if !v.IsNil() {
			eachFloat(v.Elem(), path, visit)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			eachFloat(v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				eachFloat(v.Field(i), path+"."+f.Name, visit)
			}
		}
	}
}
