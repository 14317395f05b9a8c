package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dike/internal/serve"
	"dike/internal/serve/api"
	"dike/internal/traffic"
)

const (
	machineFile = "../../examples/machines/big4x4.json"
	metaFile    = "../../examples/tournament/meta.json"
	trafficFile = "../../examples/traffic/colo.json"
	requestFile = "../../examples/requests/generated.json"
)

func readFile(t *testing.T, path string) string {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// runCLI runs one dikesim command line and returns its report.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("dikesim %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// printedDigest returns the spec digest a report prints.
func printedDigest(t *testing.T, report string) string {
	t.Helper()
	for _, line := range strings.Split(report, "\n") {
		if d, ok := strings.CutPrefix(line, "digest     "); ok {
			return d
		}
	}
	t.Fatalf("report has no digest line:\n%s", report)
	return ""
}

// servedDigest resolves a POST /v1/runs body as dikeserved does.
func servedDigest(t *testing.T, body string) string {
	t.Helper()
	var req api.RunRequest
	if err := api.Decode(strings.NewReader(body), &req); err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	_, digest, err := serve.BuildRunSpec(req)
	if err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	return digest
}

// TestDigestMatchesService: for each kind of workload source and each
// flag that shapes a run, the digest dikesim prints is the digest the
// service resolves the equivalent POST /v1/runs body to, so a run made
// here is found under the service's key and the other way round.
func TestDigestMatchesService(t *testing.T) {
	colo := readFile(t, trafficFile)
	// The body for -load is built from the parsed spec, not by editing
	// its JSON the way the CLI does.
	spec, err := traffic.ParseSpec([]byte(colo))
	if err != nil {
		t.Fatal(err)
	}
	spec.Load = 0.9
	loaded, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cases := []struct {
		name string
		args []string
		body string
	}{
		{"table2", []string{"-wl", "6", "-policy", "dike-af", "-scale", "0.02"},
			`{"workload":6,"policy":"dike-af","scale":0.02}`},
		{"apps", []string{"-apps", "jacobi, srad", "-policy", "dike", "-scale", "0.02", "-seed", "7"},
			`{"apps":["jacobi","srad"],"policy":"dike","scale":0.02,"seed":7}`},
		{"generator request", []string{"-request", requestFile}, readFile(t, requestFile)},
		{"traffic", []string{"-traffic", trafficFile, "-policy", "cfs"},
			`{"traffic":` + colo + `,"policy":"cfs"}`},
		{"traffic load", []string{"-traffic", trafficFile, "-load", "0.9", "-policy", "cfs"},
			`{"traffic":` + string(loaded) + `,"policy":"cfs"}`},
		{"machine", []string{"-wl", "3", "-scale", "0.02", "-machine", machineFile},
			`{"workload":3,"policy":"dike","scale":0.02,"machine":` + readFile(t, machineFile) + `}`},
		{"meta", []string{"-wl", "3", "-scale", "0.02", "-policy", "meta", "-meta", metaFile},
			`{"workload":3,"policy":"meta","scale":0.02,"meta":` + readFile(t, metaFile) + `}`},
		{"power", []string{"-wl", "3", "-scale", "0.02", "-policy", "dike-af", "-governor", "fairness", "-power-cap", "18"},
			`{"workload":3,"policy":"dike-af","scale":0.02,"power":{"governor":"fairness","cap_watts":18}}`},
		{"faults", []string{"-wl", "1", "-scale", "0.02", "-faults", "dropout,corrupt", "-fault-rate", "2", "-fault-seed", "5"},
			`{"workload":1,"policy":"dike","scale":0.02,"faults":{"classes":"dropout,corrupt","rate":2,"seed":5}}`},
		{"fault defaults", []string{"-wl", "1", "-scale", "0.02", "-faults", "all"},
			`{"workload":1,"policy":"dike","scale":0.02,"faults":{"classes":"all"}}`},
		// Observers are not part of the digest.
		{"observers", []string{"-wl", "6", "-policy", "dike-af", "-scale", "0.02",
			"-trace", filepath.Join(dir, "trace.csv"), "-record", filepath.Join(dir, "run.log")},
			`{"workload":6,"policy":"dike-af","scale":0.02}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := printedDigest(t, runCLI(t, tc.args...))
			if want := servedDigest(t, tc.body); got != want {
				t.Errorf("dikesim %s prints digest %s; the service resolves %s to %s",
					strings.Join(tc.args, " "), got, tc.body, want)
			}
		})
	}
}

// TestDecisionSHA256MatchesDigest: a served result's decision_sha256 is
// the SHA-256 of what dikesim -digest prints for an ungoverned run. A
// governed run's -digest output also carries the governor's decision
// stream, which the served hash leaves out.
func TestDecisionSHA256MatchesDigest(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Drain(context.Background())
	}()
	client := &api.Client{Base: ts.URL}
	for _, tc := range []struct {
		name  string
		args  []string
		body  string
		equal bool
	}{
		{"dike", []string{"-wl", "6", "-policy", "dike", "-scale", "0.02"},
			`{"workload":6,"policy":"dike","scale":0.02}`, true},
		{"governed", []string{"-wl", "3", "-policy", "dike-af", "-scale", "0.02", "-governor", "fairness", "-power-cap", "18"},
			`{"workload":3,"policy":"dike-af","scale":0.02,"power":{"governor":"fairness","cap_watts":18}}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			sub, _, err := client.Submit(ctx, "/v1/runs", []byte(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			v, err := client.Await(ctx, sub.ID, 5*time.Millisecond)
			if err != nil || v.Status != api.StatusDone {
				t.Fatalf("served run: %v %s %s", err, v.Status, v.Error)
			}
			var res api.RunResult
			if err := json.Unmarshal(v.Result, &res); err != nil || res.DecisionSHA256 == "" {
				t.Fatalf("served result has no decision_sha256: %v %s", err, v.Result)
			}
			sum := sha256.Sum256([]byte(runCLI(t, append(tc.args, "-digest")...)))
			if local := hex.EncodeToString(sum[:]); (local == res.DecisionSHA256) != tc.equal {
				t.Errorf("dikesim -digest hashes to %s, served decision_sha256 %s; want equal: %v",
					local, res.DecisionSHA256, tc.equal)
			}
		})
	}
}

// TestRecordReplayDigest: -digest prints only the decision digest, and
// a replay of the recorded log prints the same bytes.
func TestRecordReplayDigest(t *testing.T) {
	log := filepath.Join(t.TempDir(), "run.log")
	live := runCLI(t, "-request", requestFile, "-record", log, "-digest")
	if strings.Contains(live, "digest     ") || !strings.HasPrefix(live, "policy dike-af\n") {
		t.Fatalf("-digest output is not the bare decision digest:\n%s", live)
	}
	if replayed := runCLI(t, "-replay", log, "-digest"); replayed != live {
		t.Errorf("replayed decision digest differs from the live one:\n%s\nvs\n%s", replayed, live)
	}
}

// TestRunErrors: a command line the service would answer with a 400,
// or one that names a missing file, is an error before anything runs.
func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	typo := filepath.Join(dir, "typo.json")
	if err := os.WriteFile(typo, []byte(`{"workload":3,"policy":"dike","scael":0.02}`), 0o644); err != nil {
		t.Fatal(err)
	}
	null := filepath.Join(dir, "null.json")
	if err := os.WriteFile(null, []byte(`null`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A typo'd key in a machine or traffic file is an error, not a
	// silently defaulted field.
	machineTypo := filepath.Join(dir, "machine.json")
	if err := os.WriteFile(machineTypo, []byte(strings.Replace(readFile(t, machineFile), `"smt_penalty"`, `"smt_penalty_"`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	trafficTypo := filepath.Join(dir, "traffic.json")
	if err := os.WriteFile(trafficTypo, []byte(strings.Replace(readFile(t, trafficFile), `"load"`, `"lod"`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.json")
	for name, args := range map[string][]string{
		"request with a run flag":       {"-request", requestFile, "-wl", "3"},
		"request with a default value":  {"-request", requestFile, "-policy", "dike"},
		"unknown request field":         {"-request", typo},
		"missing request file":          {"-request", missing},
		"missing machine file":          {"-machine", missing},
		"missing traffic file":          {"-traffic", missing},
		"missing meta file":             {"-meta", missing, "-policy", "meta"},
		"unknown machine field":         {"-machine", machineTypo, "-scale", "0.02"},
		"unknown traffic field":         {"-traffic", trafficTypo},
		"cap without a governor":        {"-power-cap", "18", "-scale", "0.02"},
		"meta config on a fixed policy": {"-meta", metaFile, "-scale", "0.02"},
		"load without traffic":          {"-load", "0.5"},
		"load on a null traffic spec":   {"-traffic", null, "-load", "0.5"},
		"scale outside (0, 1]":          {"-scale", "1.5"},
		"NaN scale":                     {"-scale", "NaN"},
		"unknown app":                   {"-apps", "jacobi,gremlin"},
		"unknown fault class":           {"-faults", "gremlins"},
		"negative fault rate":           {"-faults", "all", "-fault-rate", "-1", "-scale", "0.02"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%s: dikesim %s succeeded", name, strings.Join(args, " "))
		}
	}
}
