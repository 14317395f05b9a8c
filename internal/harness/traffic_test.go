package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"dike/internal/traffic"
	"dike/internal/workload"
)

// testTrafficSpec is a CI-sized two-tenant colocation: a latency-critical
// class with an SLO and an admission cap sharing the machine with a
// batch class.
func testTrafficSpec() *traffic.Spec {
	return &traffic.Spec{
		Name:      "test-colo",
		HorizonMs: 2500,
		Load:      0.6,
		Classes: []traffic.ClassSpec{
			{
				Name: "lc", Profile: "hotspot", MeanWork: 400, SLOMs: 600, MaxInSystem: 16, Weight: 2,
				Arrival: traffic.ArrivalSpec{Process: traffic.ProcessMMPP, RatePerSec: 18},
			},
			{
				Name: "batch", Profile: "jacobi", MeanWork: 2500,
				Arrival: traffic.ArrivalSpec{Process: traffic.ProcessPoisson, RatePerSec: 3},
			},
		},
	}
}

func TestTrafficRunEndToEnd(t *testing.T) {
	for _, pol := range []string{PolicyCFS, PolicyDIO, PolicyDikeAF, PolicyOracle} {
		t.Run(pol, func(t *testing.T) {
			out, err := Run(context.Background(), RunSpec{Traffic: testTrafficSpec(), Policy: pol, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			tr := out.Traffic
			if tr == nil {
				t.Fatal("open-loop run returned no traffic result")
			}
			if tr.Arrivals == 0 || tr.Completed == 0 {
				t.Fatalf("no traffic flowed: %+v", tr)
			}
			if tr.Arrivals != tr.Admitted+tr.Rejected {
				t.Errorf("arrivals %d != admitted %d + rejected %d", tr.Arrivals, tr.Admitted, tr.Rejected)
			}
			if tr.Admitted != tr.Completed+tr.Killed {
				t.Errorf("drained run: admitted %d != completed %d + killed %d", tr.Admitted, tr.Completed, tr.Killed)
			}
			if tr.FairnessJain <= 0 || tr.FairnessJain > 1 {
				t.Errorf("jain = %g outside (0, 1]", tr.FairnessJain)
			}
			// The synthesized RunResult keeps downstream consumers working:
			// one bench per tenant class, fairness = the traffic aggregate.
			r := out.Result
			if r.Workload != "traffic:test-colo" {
				t.Errorf("result workload = %q", r.Workload)
			}
			if r.Fairness != tr.FairnessJain {
				t.Errorf("result fairness %g != traffic jain %g", r.Fairness, tr.FairnessJain)
			}
			if len(r.Benches) != len(tr.Classes) {
				t.Errorf("%d benches for %d classes", len(r.Benches), len(tr.Classes))
			}
		})
	}
}

func TestTrafficRunsAreDeterministic(t *testing.T) {
	spec := RunSpec{Traffic: testTrafficSpec(), Policy: PolicyDikeAF, Seed: 7}
	a, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a.Traffic)
	jb, _ := json.Marshal(b.Traffic)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("identical specs produced different traffic results:\n%s\n%s", ja, jb)
	}
}

// TestTrafficRecordReplayByteParity is the open-loop acceptance round
// trip: record a traffic run, replay the log, and the decision digests
// must match byte for byte.
func TestTrafficRecordReplayByteParity(t *testing.T) {
	spec := RunSpec{Traffic: testTrafficSpec(), Policy: PolicyDikeAF, Seed: 42}
	out, log := recordRun(t, spec)
	if len(out.History) == 0 {
		t.Fatal("live traffic run recorded no quanta")
	}
	live := Digest(spec.Policy, out.History)
	rep, err := Replay(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if got := Digest(rep.Policy, rep.History); got != live {
		t.Fatalf("traffic replay digest differs:\nlive:\n%s\nreplay:\n%s", live, got)
	}
}

// TestTrafficCancelledRunNamesSource pins the engine error path for
// open-loop runs: spec.Workload is nil, so the error message must name
// the traffic scenario instead of panicking.
func TestTrafficCancelledRunNamesSource(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, RunSpec{Traffic: testTrafficSpec(), Policy: PolicyCFS, Seed: 42})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "traffic:test-colo") {
		t.Errorf("error %q does not name the traffic source", err)
	}
}

// TestTrafficRunTrace: TraceEvery on an open-loop run captures the
// machine-level columns; the dispersion column needs a fixed benchmark
// set and is absent.
func TestTrafficRunTrace(t *testing.T) {
	out, err := Run(context.Background(), RunSpec{
		Traffic: testTrafficSpec(), Policy: PolicyCFS, Seed: 42, TraceEvery: 250,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := out.Trace
	if rt == nil {
		t.Fatal("no trace captured for traffic run")
	}
	if len(rt.Rows) == 0 {
		t.Fatal("empty machine-level trace")
	}
	if slices.Contains(rt.Columns, "progress_dispersion") {
		t.Error("dispersion column present without a fixed benchmark set")
	}
	var sb strings.Builder
	if err := rt.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "time_ms,mem_util,alive_threads,cumulative_swaps") {
		t.Errorf("csv header: %q", strings.SplitN(sb.String(), "\n", 2)[0])
	}
}

func TestTrafficSpecValidation(t *testing.T) {
	if err := (RunSpec{Policy: PolicyCFS}).Validate(); !errors.Is(err, ErrNoWorkload) {
		t.Errorf("no source: err = %v, want ErrNoWorkload", err)
	}
	both := RunSpec{
		Workload: workload.MustTable2(1),
		Traffic:  testTrafficSpec(),
		Policy:   PolicyCFS, Scale: 0.5,
	}
	if err := both.Validate(); !errors.Is(err, ErrAmbiguousSource) {
		t.Errorf("both sources: err = %v, want ErrAmbiguousSource", err)
	}
	bad := testTrafficSpec()
	bad.Classes[0].Profile = "no-such-app"
	if err := (RunSpec{Traffic: bad, Policy: PolicyCFS}).Validate(); err == nil {
		t.Error("invalid traffic spec passed Validate")
	}
}

// trafficDigestSpecs is the open-loop digest corpus: pinned in its own
// golden file (testdata/traffic_digests.json) so the legacy corpus in
// seed_digests.json — whose entry count is itself a guard — stays
// untouched. TestDigestsPinned checks it.
func trafficDigestSpecs() []namedSpec {
	var out []namedSpec
	for _, pol := range []string{PolicyCFS, PolicyDIO, PolicyDike, PolicyDikeAF, PolicyOracle} {
		out = append(out, namedSpec{
			name: "traffic-colo-" + pol,
			spec: RunSpec{Traffic: testTrafficSpec(), Policy: pol, Seed: 42},
		})
	}
	loaded := testTrafficSpec()
	loaded.Load = 0.95
	out = append(out, namedSpec{
		name: "traffic-colo-load95",
		spec: RunSpec{Traffic: loaded, Policy: PolicyDikeAF, Seed: 7},
	})
	return out
}
