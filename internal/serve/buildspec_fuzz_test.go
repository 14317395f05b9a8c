package serve

import (
	"context"
	"encoding/json"
	"testing"

	"dike/internal/harness"
	"dike/internal/sim"
)

// tinyScale and tinyHorizon shrink every spec FuzzBuildRunSpec runs,
// so the seed corpus stays fast under go test.
const (
	tinyScale   = 0.01
	tinyHorizon = sim.Time(1000)
)

// FuzzBuildRunSpec feeds arbitrary bodies to BuildRunSpec, decoded the
// way the submit handlers decode them. Every body must either fail or
// resolve to a spec whose Digest equals the returned digest on every
// call, and the body's re-encoding, the RunMemo key, must resolve to
// the same outcome: an error for both, or the same digest. That is
// what makes a memo hit exact. Each accepted spec then runs, shrunk to
// tinyScale and tinyHorizon: it must return an output or an error
// (a sim.HorizonError among them), never panic.
func FuzzBuildRunSpec(f *testing.F) {
	for _, body := range exampleRequests(f) {
		f.Add([]byte(body))
	}
	for _, body := range []string{
		`{"workload":1,"policy":"dike-af","power":{"governor":"ondemand"}}`,
		`{"workload":1,"policy":"dike-af","power":{"governor":"fairness","cap_watts":18,"period_ms":250}}`,
		`{"workload":1,"policy":"dike-af","power":{"governor":"thermal","cap_wats":20}}`,
		`{"workload":2,"policy":"dio","faults":{"classes":"dropout,corrupt","rate":4}}`,
		`{"workload":2,"policy":"dike","faults":{"classes":"none"}}`,
		`{"workload":2,"policy":"dike","faults":{"classes":"martian"}}`,
		`{"workload":1,"policy":"dike","scale":5e-324}`,
		`{"workload":1,"policy":"meta","scale":0.01,"meta":{"epoch_ms":1,"window_ms":1,"candidates":["cfs"]}}`,
		`{"workload":1,"policy":"dike-ea","power":{"governor":"fairness","cap_watts":0.001},"machine":{"core_types":[{"name":"a","speed":1,"smt_ways":1}],"sockets":[{"cores":[{"type":"a","physical":1}],"mem":{"capacity":1,"base_latency":0.01,"max_util":0.9}}]}}`,
		// Generating these arrival streams used to loop for ~1e300
		// steps before the run could start; the class event bound
		// rejects them.
		`{"policy":"dike","traffic":{"horizon_ms":1000,"classes":[{"name":"c","profile":"jacobi","mean_work":10,"arrival":{"process":"mmpp","rate_per_sec":1,"burst_ms":1e-300,"calm_ms":1e-300}}]}}`,
		`{"policy":"dike","traffic":{"horizon_ms":1000,"classes":[{"name":"c","profile":"jacobi","mean_work":10,"arrival":{"process":"poisson","rate_per_sec":1e300}}]}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeBody(body)
		if err != nil {
			return
		}
		spec, digest, buildErr := BuildRunSpec(req)
		if buildErr == nil {
			for call := 0; call < 2; call++ {
				if d, err := spec.Digest(); err != nil || d != digest {
					t.Fatalf("Digest call %d = %s, %v; BuildRunSpec returned %s", call, d, err, digest)
				}
			}
			if spec.Workload != nil {
				spec.Scale = min(spec.Scale, tinyScale)
			}
			spec.MaxTime = tinyHorizon
			if out, err := harness.Run(context.Background(), spec); out == nil && err == nil {
				t.Fatal("Run returned neither an output nor an error")
			}
		}
		key, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode decoded request: %v", err)
		}
		again, err := decodeBody(key)
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v: %s", err, key)
		}
		_, digestAgain, errAgain := BuildRunSpec(again)
		if (buildErr == nil) != (errAgain == nil) || digest != digestAgain {
			t.Fatalf("body and its re-encoding resolve differently:\nbody %q: %s, %v\nkey  %q: %s, %v",
				body, digest, buildErr, key, digestAgain, errAgain)
		}
	})
}
