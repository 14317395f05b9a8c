package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"dike/internal/serve/api"
)

// trafficBody is a small open-loop run request: two tenants on a short
// horizon so the served simulation stays CI-sized.
const trafficBody = `{
	"policy": "dike-af",
	"seed": 7,
	"traffic": {
		"name": "served-colo",
		"horizon_ms": 1500,
		"load": 0.6,
		"classes": [
			{"name": "lc", "profile": "hotspot", "mean_work": 400, "slo_ms": 600,
			 "max_in_system": 16,
			 "arrival": {"process": "mmpp", "rate_per_sec": 15}},
			{"name": "batch", "profile": "jacobi", "mean_work": 2000,
			 "arrival": {"process": "poisson", "rate_per_sec": 3}}
		]
	}
}`

func TestServeTrafficRunEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	resp, body := postJSON(t, ts.URL+"/v1/runs", trafficBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, body %s", resp.StatusCode, body)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if len(sub.Digest) != 64 {
		t.Fatalf("digest %q is not a sha256", sub.Digest)
	}

	v := waitDone(t, ts.URL, sub.ID)
	if v.Status != api.StatusDone {
		t.Fatalf("job = %+v, want done", v)
	}
	var res api.RunResult
	if err := json.Unmarshal(v.Result, &res); err != nil {
		t.Fatal(err)
	}
	tr := res.Traffic
	if tr == nil {
		t.Fatalf("traffic run result carries no traffic block: %+v", res)
	}
	if tr.Name != "served-colo" || tr.Completed == 0 {
		t.Fatalf("implausible traffic result: %+v", tr)
	}
	if tr.Arrivals != tr.Admitted+tr.Rejected {
		t.Errorf("arrivals %d != admitted %d + rejected %d", tr.Arrivals, tr.Admitted, tr.Rejected)
	}
	if len(tr.Classes) != 2 {
		t.Fatalf("%d class results, want 2", len(tr.Classes))
	}
	lc := tr.Classes[0]
	if lc.Name != "lc" || lc.P99Ms < lc.P50Ms || lc.P50Ms <= 0 {
		t.Errorf("latency-critical class result implausible: %+v", lc)
	}

	// An identical resubmission must hit the digest cache.
	resp2, body2 := postJSON(t, ts.URL+"/v1/runs", trafficBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached resubmit = %d, body %s, want 200", resp2.StatusCode, body2)
	}
	var sub2 api.SubmitResponse
	if err := json.Unmarshal(body2, &sub2); err != nil {
		t.Fatal(err)
	}
	if sub2.Digest != sub.Digest {
		t.Errorf("resubmission digest %s != %s", sub2.Digest, sub.Digest)
	}
	if !sub2.Cached {
		t.Error("identical traffic run was not served from the digest cache")
	}
}

func TestServeTrafficRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	// Scale is a closed-loop knob; combining it with traffic is an error.
	resp, _ := postJSON(t, ts.URL+"/v1/runs",
		`{"policy":"cfs","scale":0.5,"traffic":{"horizon_ms":1000,"classes":[
			{"name":"c","profile":"jacobi","mean_work":100,
			 "arrival":{"process":"poisson","rate_per_sec":10}}]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("traffic+scale = %d, want 400", resp.StatusCode)
	}

	// Invalid traffic specs fail at admission, not at run time.
	resp, _ = postJSON(t, ts.URL+"/v1/runs",
		`{"policy":"cfs","traffic":{"horizon_ms":1000,"classes":[
			{"name":"c","profile":"no-such-app","mean_work":100,
			 "arrival":{"process":"poisson","rate_per_sec":10}}]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad profile = %d, want 400", resp.StatusCode)
	}
}
