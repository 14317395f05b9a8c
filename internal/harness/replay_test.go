package harness

import (
	"bytes"
	"context"
	"errors"
	"math"
	"regexp"
	"strings"
	"testing"

	"dike/internal/fault"
	"dike/internal/machine"
	"dike/internal/platform"
	"dike/internal/power"
	"dike/internal/replay"
	"dike/internal/workload"
)

// recordRun executes spec with recording enabled and returns the run
// output plus the log bytes.
func recordRun(t testing.TB, spec RunSpec) (*RunOutput, []byte) {
	t.Helper()
	var buf bytes.Buffer
	spec.Record = &buf
	out, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return out, buf.Bytes()
}

// TestRecordReplayDike is the tentpole round trip: a Dike run is
// recorded, replayed twice, and all three run digests — including every
// per-quantum fairness value, compared bit-for-bit, and any governor
// decision stream — must be identical. The cases are the dikesim command
// lines (default -seed, -fault-rate and -fault-seed) a user would
// record and replay:
//
//	dikesim -wl 6 -policy dike -scale 0.1
//	dikesim -wl 1 -policy dike-af -scale 0.1 -faults all
//	dikesim -wl 3 -policy dike-af -scale 0.1 -machine examples/machines/dvfs8.json -governor fairness -power-cap 20
func TestRecordReplayDike(t *testing.T) {
	classes, err := fault.ParseClasses("all")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.DefaultConfig()
	faults.Classes, faults.Rate, faults.Seed = classes, 1, 1
	dvfs8, err := platform.LoadMachineSpec("../../examples/machines/dvfs8.json")
	if err != nil {
		t.Fatal(err)
	}
	mcfg := machine.DefaultConfig()
	mcfg.Spec = dvfs8

	cases := []struct {
		name     string
		spec     RunSpec
		governed bool
	}{
		{"healthy", RunSpec{Workload: workload.MustTable2(6), Policy: PolicyDike, Seed: 42, Scale: 0.1}, false},
		{"faulty", RunSpec{Workload: workload.MustTable2(1), Policy: PolicyDikeAF, Seed: 42, Scale: 0.1, Faults: &faults}, false},
		{"governed", RunSpec{Workload: workload.MustTable2(3), Policy: PolicyDikeAF, Seed: 42, Scale: 0.1,
			MachineConfig: &mcfg, Power: &power.Config{Governor: power.GovernorFairness, CapWatts: 20}}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := c.spec
			out, log := recordRun(t, spec)
			if len(out.History) == 0 {
				t.Fatal("live run recorded no quanta")
			}
			live := RunDigest(spec.Policy, out.History, out.MetaStats, out.Power)

			rep1, err := Replay(bytes.NewReader(log))
			if err != nil {
				t.Fatal(err)
			}
			rep2, err := Replay(bytes.NewReader(log))
			if err != nil {
				t.Fatal(err)
			}
			d1 := RunDigest(rep1.Policy, rep1.History, rep1.MetaStats, rep1.Power)
			d2 := RunDigest(rep2.Policy, rep2.History, rep2.MetaStats, rep2.Power)
			if live != d1 {
				t.Fatalf("replay digest differs from live run:\nlive:\n%s\nreplay:\n%s", live, d1)
			}
			if d1 != d2 {
				t.Fatal("two replays of the same log differ")
			}
			// The log really carries the governor stream: DVFS actuation
			// events are present.
			if c.governed && !bytes.Contains(log, []byte(`"k":"d"`)) {
				t.Error("governed log carries no DVFS actuation events")
			}

			// The full prediction bookkeeping reproduces bit-identically too.
			if rep1.PredMin != out.PredMin || rep1.PredAvg != out.PredAvg || rep1.PredMax != out.PredMax {
				t.Errorf("prediction stats differ: live (%v %v %v), replay (%v %v %v)",
					out.PredMin, out.PredAvg, out.PredMax, rep1.PredMin, rep1.PredAvg, rep1.PredMax)
			}
			if len(rep1.ErrSeries) != len(out.ErrSeries) {
				t.Fatalf("error series length %d != %d", len(rep1.ErrSeries), len(out.ErrSeries))
			}
			for i := range out.ErrSeries {
				if rep1.ErrSeries[i] != out.ErrSeries[i] {
					t.Fatalf("error series diverges at %d: %+v != %+v", i, rep1.ErrSeries[i], out.ErrSeries[i])
				}
			}
			if rep1.Policy != spec.Policy || rep1.Seed != spec.Seed {
				t.Errorf("replay identity = %s/%d", rep1.Policy, rep1.Seed)
			}
			if rep1.Quanta == 0 || rep1.CompletedAt <= 0 {
				t.Error("replay progress bookkeeping empty")
			}
		})
	}
}

// TestRecordReplayAdaptiveUnderFaults exercises the hard cases at once:
// an adaptive policy (parameters retune mid-run) under fault injection
// (corrupted counter readings — NaN and Inf land in the log, silently
// failed swaps land in the decision stream).
func TestRecordReplayAdaptiveUnderFaults(t *testing.T) {
	fc := fault.DefaultConfig()
	fc.Seed = 3
	spec := RunSpec{Workload: workload.MustTable2(1), Policy: PolicyDikeAF, Seed: 7, Scale: 0.05, Faults: &fc}
	out, log := recordRun(t, spec)

	rep, err := Replay(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Digest(rep.Policy, rep.History), Digest(spec.Policy, out.History); got != want {
		t.Fatalf("faulty-run replay digest differs:\nlive:\n%s\nreplay:\n%s", want, got)
	}
	if rep.FailedSwaps != out.FailedSwaps || rep.WatchdogTrips != out.WatchdogTrips {
		t.Errorf("degradation bookkeeping differs: live (%d, %d), replay (%d, %d)",
			out.FailedSwaps, out.WatchdogTrips, rep.FailedSwaps, rep.WatchdogTrips)
	}
	if rep.Sanitized != out.Sanitized {
		t.Errorf("sanitize stats differ: live %+v, replay %+v", out.Sanitized, rep.Sanitized)
	}
	if math.IsNaN(rep.PredAvg) {
		t.Error("replayed prediction average is NaN")
	}
}

// TestRecordReplayNonSamplingPolicies covers policies that never read
// counters: their replays are driven purely by recorded quantum events.
func TestRecordReplayNonSamplingPolicies(t *testing.T) {
	for _, policy := range []string{PolicyCFS, PolicyRotate, PolicyOracle, PolicyDIO} {
		t.Run(policy, func(t *testing.T) {
			spec := RunSpec{Workload: workload.MustTable2(1), Policy: policy, Seed: 42, Scale: 0.05}
			_, log := recordRun(t, spec)
			rep, err := Replay(bytes.NewReader(log))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Policy != policy || rep.Quanta == 0 {
				t.Errorf("replay = %s with %d quanta", rep.Policy, rep.Quanta)
			}
			if rep.History != nil {
				t.Error("non-Dike replay carries Dike bookkeeping")
			}
		})
	}
}

// TestReplayDetectsTamperedLog corrupts one recorded counter reading;
// the replayed policy then decides differently and the player must
// report divergence rather than quietly producing different numbers.
func TestReplayDetectsTamperedLog(t *testing.T) {
	spec := RunSpec{Workload: workload.MustTable2(6), Policy: PolicyDike, Seed: 42, Scale: 0.05}
	_, log := recordRun(t, spec)

	// Saturate every miss delta in one sample mid-run: fairness and the
	// selector's pairing flip, so the decision stream cannot match.
	lines := strings.Split(string(log), "\n")
	tampered := false
	sampleSeen := 0
	for i, ln := range lines {
		if !strings.Contains(ln, `"k":"s"`) {
			continue
		}
		sampleSeen++
		if sampleSeen < 5 {
			continue // leave the baseline and early quanta intact
		}
		mod := strings.ReplaceAll(ln, `"mi":`, `"mi":9`)
		if mod != ln {
			lines[i] = mod
			tampered = true
		}
		break
	}
	if !tampered {
		t.Fatal("could not find a sample event to tamper with")
	}
	_, err := Replay(strings.NewReader(strings.Join(lines, "\n")))
	if !errors.Is(err, replay.ErrDivergence) {
		t.Fatalf("tampered log replayed with err = %v, want divergence", err)
	}
}

// TestReplayRejectsOutOfRangeIDs edits one recorded event to name a
// core outside the header's topology or a thread outside its thread
// table. Policies index per-core and per-thread state by these ids, so
// the player must reject the log at decode time, whatever the policy:
// dike and dike-af would otherwise index out of range, and dio and cfs
// would replay the bad placement without complaint.
func TestReplayRejectsOutOfRangeIDs(t *testing.T) {
	cases := []struct {
		name, policy string
		kind         string // the kind of the first event edited
		from, to     string // a regexp over that event's line, and its replacement
	}{
		{"dike post-placement core", PolicyDike, "p", `"pa":\d+`, `"pa":999`},
		{"dike-af post-placement core", PolicyDikeAF, "p", `"pa":\d+`, `"pa":999`},
		{"dio post-placement core", PolicyDIO, "p", `"pa":\d+`, `"pa":999`},
		{"cfs post-placement core", PolicyCFS, "p", `"pa":\d+`, `"pa":999`},
		{"requested core", PolicyDike, "p", `"c":\d+`, `"c":-1`},
		{"placed thread", PolicyDike, "p", `"a":\d+`, `"a":999`},
		{"swap partner", PolicyDike, "w", `"b":\d+`, `"b":999`},
		{"swap partner's core", PolicyDike, "w", `"pb":\d+`, `"pb":999`},
		{"alive thread", PolicyDike, "q", `"alive":\[`, `"alive":[999,`},
	}
	logs := map[string][]byte{}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			log, ok := logs[c.policy]
			if !ok {
				_, log = recordRun(t, RunSpec{Workload: workload.MustTable2(6), Policy: c.policy, Seed: 42, Scale: 0.05})
				logs[c.policy] = log
			}
			lines := strings.Split(string(log), "\n")
			edited := -1
			for i, ln := range lines[1:] {
				if strings.HasPrefix(ln, `{"k":"`+c.kind+`"`) {
					edited = i + 1
					break
				}
			}
			if edited < 0 {
				t.Fatalf("the %s log has no %q event", c.policy, c.kind)
			}
			re := regexp.MustCompile(c.from)
			lines[edited] = re.ReplaceAllString(lines[edited], c.to)
			rep, err := Replay(strings.NewReader(strings.Join(lines, "\n")))
			if err == nil {
				t.Fatalf("replayed %d quanta of a log with %s", rep.Quanta, lines[edited])
			}
			if errors.Is(err, replay.ErrDivergence) || !strings.Contains(err.Error(), "event ") {
				t.Errorf("err = %v, want a decode error naming the event", err)
			}
		})
	}
}

// TestDigestDeterministic pins the digest format: shortest round-trip
// floats, one line per quantum.
func TestDigestDeterministic(t *testing.T) {
	spec := RunSpec{Workload: workload.MustTable2(1), Policy: PolicyDike, Seed: 42, Scale: 0.05}
	a, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	da, db := Digest(PolicyDike, a.History), Digest(PolicyDike, b.History)
	if da != db {
		t.Fatal("identical runs digest differently")
	}
	if !strings.HasPrefix(da, "policy dike\nquanta ") {
		t.Errorf("digest header: %q", da[:40])
	}
	if strings.Count(da, "\nq t=") != len(a.History) {
		t.Error("digest line count != history length")
	}
}
