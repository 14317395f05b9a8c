package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"dike/internal/serve/api"
)

// metaBody is a served meta-policy run: the adaptive switcher on a
// short two-tenant open-loop scenario, with an aggressive epoch so
// tournaments actually fire inside the CI-sized horizon.
const metaBody = `{
	"policy": "meta",
	"seed": 7,
	"meta": {"epoch_ms": 500, "window_ms": 2000, "candidates": ["dio", "dike-af"]},
	"traffic": {
		"name": "served-meta",
		"horizon_ms": 2000,
		"load": 0.7,
		"classes": [
			{"name": "lc", "profile": "hotspot", "mean_work": 400, "slo_ms": 600,
			 "max_in_system": 16,
			 "arrival": {"process": "mmpp", "rate_per_sec": 15}},
			{"name": "batch", "profile": "jacobi", "mean_work": 2000,
			 "arrival": {"process": "poisson", "rate_per_sec": 3}}
		]
	}
}`

func TestServeMetaRunEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	resp, body := postJSON(t, ts.URL+"/v1/runs", metaBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, body %s", resp.StatusCode, body)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}

	v := waitDone(t, ts.URL, sub.ID)
	if v.Status != api.StatusDone {
		t.Fatalf("job = %+v, want done", v)
	}
	var res api.RunResult
	if err := json.Unmarshal(v.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Traffic == nil || res.Traffic.Completed == 0 {
		t.Fatalf("implausible meta traffic result: %+v", res.Traffic)
	}
	// The tournament record rides the wire result.
	if res.MetaFinalPolicy == "" {
		t.Error("served meta run reports no final policy")
	}

	// The meta config is part of the content address: resubmitting the
	// same config hits the digest cache.
	resp2, body2 := postJSON(t, ts.URL+"/v1/runs", metaBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached resubmit = %d, body %s, want 200", resp2.StatusCode, body2)
	}
	var sub2 api.SubmitResponse
	if err := json.Unmarshal(body2, &sub2); err != nil {
		t.Fatal(err)
	}
	if sub2.Digest != sub.Digest || !sub2.Cached {
		t.Errorf("identical meta run not cache-hit: digest %s vs %s, cached %v",
			sub2.Digest, sub.Digest, sub2.Cached)
	}
}

func TestServeMetaRejectsConfigOnFixedPolicy(t *testing.T) {
	// A meta config on a non-meta policy is a spec error, caught at
	// admission — not silently ignored.
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	resp, body := postJSON(t, ts.URL+"/v1/runs",
		`{"policy":"cfs","meta":{"epoch_ms":500},"traffic":{"horizon_ms":1000,"classes":[
			{"name":"c","profile":"jacobi","mean_work":100,
			 "arrival":{"process":"poisson","rate_per_sec":10}}]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("meta config on cfs = %d, body %s, want 400", resp.StatusCode, body)
	}

	// Unknown fields in the config are rejected, matching dikesim -meta.
	resp, body = postJSON(t, ts.URL+"/v1/runs",
		`{"policy":"meta","meta":{"epoch_msec":500},"traffic":{"horizon_ms":1000,"classes":[
			{"name":"c","profile":"jacobi","mean_work":100,
			 "arrival":{"process":"poisson","rate_per_sec":10}}]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown meta field = %d, body %s, want 400", resp.StatusCode, body)
	}
}
