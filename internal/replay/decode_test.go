package replay_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"dike/internal/fault"
	"dike/internal/harness"
	"dike/internal/machine"
	"dike/internal/platform"
	"dike/internal/power"
	"dike/internal/replay"
	"dike/internal/traffic"
	"dike/internal/workload"
)

// recordedLogs records, once per test binary, the runs whose event
// lines FuzzDecodeEvent is seeded from and TestScannerMatchesRecordedLogs
// checks in full: a healthy dike run; a faulty dike-af run, whose log
// carries NaN and ±Inf readings and dropped ones; a governed dike-ea run
// on the dvfs8 machine, for the energy-meter and DVFS events; and a meta
// traffic run.
var recordedLogs = sync.OnceValues(func() (map[string][]byte, error) {
	dvfs8, err := platform.LoadMachineSpec("../../examples/machines/dvfs8.json")
	if err != nil {
		return nil, err
	}
	mcfg := machine.DefaultConfig()
	mcfg.Spec = dvfs8
	colo, err := traffic.LoadSpec("../../examples/traffic/colo.json")
	if err != nil {
		return nil, err
	}
	colo.HorizonMs = 2000
	faults := fault.DefaultConfig()
	specs := map[string]harness.RunSpec{
		"healthy":  {Workload: workload.MustTable2(6), Policy: harness.PolicyDike, Seed: 42, Scale: 0.05},
		"faulty":   {Workload: workload.MustTable2(1), Policy: harness.PolicyDikeAF, Seed: 42, Scale: 0.05, Faults: &faults},
		"governed": {Workload: workload.MustTable2(3), Policy: harness.PolicyDikeEA, Seed: 42, Scale: 0.05, MachineConfig: &mcfg, Power: &power.Config{Governor: power.GovernorFairness, CapWatts: 20}},
		"meta":     {Traffic: colo, Policy: harness.PolicyMeta, Seed: 42},
	}
	logs := make(map[string][]byte, len(specs))
	for name, spec := range specs {
		var buf bytes.Buffer
		spec.Record = &buf
		if _, err := harness.Run(context.Background(), spec); err != nil {
			return nil, err
		}
		logs[name] = buf.Bytes()
	}
	return logs, nil
})

// eventLines returns the event lines of log, after its header.
func eventLines(t testing.TB, log []byte) [][]byte {
	t.Helper()
	lines := bytes.SplitAfter(log, []byte("\n"))
	if len(lines) < 2 || len(lines[len(lines)-1]) != 0 {
		t.Fatal("log is not newline-terminated lines")
	}
	return lines[1 : len(lines)-1]
}

// TestScannerMatchesRecordedLogs runs the differential check on every
// event line of the recorded logs and of the log record writes: the
// scanner must accept each line and decode it as encoding/json does,
// bit for bit. The faulty and governed logs must carry the readings and
// events they were recorded for.
func TestScannerMatchesRecordedLogs(t *testing.T) {
	logs, err := recordedLogs()
	if err != nil {
		t.Fatal(err)
	}
	own, _ := record(t)
	logs["script"] = own
	carries := map[string][]string{"faulty": {`"NaN"`, `"+Inf"`}, "governed": {`"k":"e"`, `"k":"d"`}}
	for name, log := range logs {
		for _, line := range eventLines(t, log) {
			if !replay.CheckEventLine(t, line) {
				t.Fatalf("%s: scanner rejected recorded line %q", name, line)
			}
		}
		for _, m := range carries[name] {
			if !bytes.Contains(log, []byte(m)) {
				t.Errorf("%s log carries no %s", name, m)
			}
		}
	}
}

// FuzzDecodeEvent is the scanner's differential fuzz target: it must
// never panic, and whenever it accepts a line, encoding/json must
// decode the same event from it. The seeds are, from each recorded log,
// the first line of each event kind and the first with each non-finite
// reading, plus the hand-made lines.
func FuzzDecodeEvent(f *testing.F) {
	logs, err := recordedLogs()
	if err != nil {
		f.Fatal(err)
	}
	for _, log := range logs {
		seen := map[string]bool{}
		for _, line := range eventLines(f, log) {
			key := string(line[:8]) // {"k":"x"
			for _, m := range []string{`"NaN"`, `"+Inf"`, `"-Inf"`} {
				if bytes.Contains(line, []byte(m)) {
					key += m
				}
			}
			if !seen[key] {
				seen[key] = true
				f.Add(line)
			}
		}
	}
	for _, line := range replay.HandMadeLines {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		replay.CheckEventLine(t, line)
	})
}
