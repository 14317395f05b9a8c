package serve

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestBuildRunSpecPowerPassthrough: a power config on the request must
// reach the harness spec and move the content address.
func TestBuildRunSpecPowerPassthrough(t *testing.T) {
	bare := RunRequest{Workload: 1, Policy: "dike-af"}
	governed := bare
	governed.Power = json.RawMessage(`{"governor": "ondemand", "cap_watts": 20}`)

	spec, digest, err := BuildRunSpec(governed)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Power == nil || spec.Power.Governor != "ondemand" || spec.Power.CapWatts != 20 {
		t.Fatalf("power config did not reach the spec: %+v", spec.Power)
	}
	_, bareDigest, err := BuildRunSpec(bare)
	if err != nil {
		t.Fatal(err)
	}
	if digest == bareDigest {
		t.Fatal("governed and ungoverned requests share a digest")
	}
}

// TestBuildRunSpecPowerRejectsBadConfig: typos and invalid governor
// configs are spec errors, not silently-ungoverned runs.
func TestBuildRunSpecPowerRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name string
		raw  string
	}{
		{"unknown field", `{"governor": "ondemand", "cap_wats": 20}`},
		{"unknown governor", `{"governor": "turbo", "cap_watts": 20}`},
		{"capping governor without cap", `{"governor": "fairness"}`},
		{"cap without governor", `{"cap_watts": 18}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := RunRequest{Workload: 1, Policy: "dike-af", Power: json.RawMessage(tc.raw)}
			if _, _, err := BuildRunSpec(req); err == nil {
				t.Fatalf("BuildRunSpec accepted %s", tc.raw)
			}
		})
	}
}

// TestServePowerWithoutGovernorRejected: a power setting with no
// governor would run ungoverned, at the digest of a run without it, so
// the body is a 400 rather than a run that ignores the setting.
func TestServePowerWithoutGovernorRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	resp, body := postJSON(t, ts.URL+"/v1/runs", `{"workload":1,"policy":"dike-af","power":{"cap_watts":18}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("cap_watts without a governor = %d, body %s, want 400", resp.StatusCode, body)
	}
}
