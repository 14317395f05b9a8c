package serve

import (
	"encoding/json"
	"testing"
)

// FuzzBuildRunSpec feeds arbitrary bodies to BuildRunSpec, decoded the
// way the submit handlers decode them. Every body must either fail or
// resolve to a spec whose Digest equals the returned digest on every
// call, and the body's re-encoding, the RunMemo key, must resolve to
// the same outcome: an error for both, or the same digest. That is
// what makes a memo hit exact. The spec is never run.
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
