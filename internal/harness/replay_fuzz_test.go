package harness

import (
	"bytes"
	"testing"

	"dike/internal/fault"
	"dike/internal/power"
	"dike/internal/workload"
)

// fuzzSeedSpecs are the runs whose recorded logs seed FuzzReplay: a
// healthy dike run; a faulty dike-af run, whose log carries NaN and ±Inf
// readings and dropped ones; a governed dike-ea run on the dvfs8
// machine, for the energy-meter and DVFS events; and a meta traffic run.
// The Table II workloads run with three threads per benchmark, so a
// sample line is short and the seeds stay small.
func fuzzSeedSpecs() []RunSpec {
	small := func(n int) *workload.Workload {
		w := *workload.MustTable2(n)
		w.Benchmarks = append([]workload.Benchmark(nil), w.Benchmarks...)
		for i := range w.Benchmarks {
			w.Benchmarks[i].Threads = 3
		}
		return &w
	}
	faults := fault.DefaultConfig()
	return []RunSpec{
		{Workload: small(6), Policy: PolicyDike, Seed: 42, Scale: 0.05, MachineConfig: dvfs8Machine()},
		{Workload: small(1), Policy: PolicyDikeAF, Seed: 42, Scale: 0.05, MachineConfig: dvfs8Machine(), Faults: &faults},
		{Workload: small(3), Policy: PolicyDikeEA, Seed: 42, Scale: 0.05, MachineConfig: dvfs8Machine(),
			Power: &power.Config{Governor: power.GovernorFairness, CapWatts: 20}},
		{Traffic: testTrafficSpec(), Policy: PolicyMeta, Seed: 42},
	}
}

// logPrefix cuts log at a quantum boundary, keeping the header and the
// fewest whole quanta in which every marker that occurs in log has
// occurred, so a seed stays small but keeps what makes its log worth
// seeding.
func logPrefix(log []byte, markers ...string) []byte {
	end := 0
	for _, m := range markers {
		if i := bytes.Index(log, []byte(m)); i > end {
			end = i
		}
	}
	if q := bytes.Index(log[end:], []byte(`{"k":"q"`)); q >= 0 {
		return log[:end+q]
	}
	return log
}

// FuzzReplay feeds Replay arbitrary bytes: it must return an output or
// an error, and never panic. The seeds are short prefixes of recorded
// logs, plus a recorded header followed by hand-made event lines: an
// escaped error string, an empty alive set and a null sample.
func FuzzReplay(f *testing.F) {
	var header []byte
	for _, spec := range fuzzSeedSpecs() {
		_, log := recordRun(f, spec)
		f.Add(logPrefix(log, `"k":"w"`, `"k":"e"`, `"k":"d"`, `"NaN"`, `Inf"`))
		if header == nil {
			header, _, _ = bytes.Cut(log, []byte("\n"))
		}
	}
	for _, line := range []string{
		`{"k":"q","t":0,"alive":[0,1],"a":0,"b":0,"c":0,"pa":0,"pb":0}` + "\n" +
			`{"k":"p","t":0,"a":0,"b":0,"c":0,"pa":0,"pb":0,"err":"machine: \"core\" 0 <busy>\n"}`,
		`{"k":"q","t":0,"alive":[],"a":0,"b":0,"c":0,"pa":0,"pb":0}`,
		`{"k":"q","t":0,"alive":[0],"a":0,"b":0,"c":0,"pa":0,"pb":0}` + "\n" +
			`{"k":"s","t":0,"s":null,"a":0,"b":0,"c":0,"pa":0,"pb":0}`,
	} {
		f.Add(append(append(append([]byte(nil), header...), '\n'), line...))
	}
	f.Fuzz(func(t *testing.T, log []byte) {
		out, err := Replay(bytes.NewReader(log))
		if (out == nil) == (err == nil) {
			t.Fatalf("Replay returned output %v and error %v", out, err)
		}
	})
}
