package harness

import (
	"bytes"
	"os"
	"testing"

	"dike/internal/machine"
	"dike/internal/platform"
	"dike/internal/power"
	"dike/internal/workload"
)

// BenchmarkReplay replays a governed dike-ea recording of Table II
// workload 6 on examples/machines/dvfs8.json under the fairness governor
// at a 20 W cap: the shape of the replay input cmd/dikeperf runs. The
// recording is made once, before the timer starts.
func BenchmarkReplay(b *testing.B) {
	blob, err := os.ReadFile("../../examples/machines/dvfs8.json")
	if err != nil {
		b.Fatal(err)
	}
	dvfs8, err := platform.ParseMachineSpec(blob)
	if err != nil {
		b.Fatal(err)
	}
	mcfg := machine.DefaultConfig()
	mcfg.Spec = dvfs8
	_, log := recordRun(b, RunSpec{
		Workload: workload.MustTable2(6), Policy: PolicyDikeEA, Seed: 42, Scale: 0.3, MachineConfig: &mcfg,
		Power: &power.Config{Governor: power.GovernorFairness, CapWatts: 20},
	})
	b.SetBytes(int64(len(log)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Replay(bytes.NewReader(log)); err != nil {
			b.Fatal(err)
		}
	}
}
