package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"dike/internal/harness"
	"dike/internal/serve"
	"dike/internal/serve/api"
)

// The benchmark owns its machine and traffic documents, so an edit to
// examples/ cannot silently change what a workload measures.
var (
	//go:embed testdata/8s4t-1024.json
	machine1024 []byte
	//go:embed testdata/dvfs8.json
	machineDVFS8 []byte
	//go:embed testdata/colo-095.json
	trafficColo []byte
	//go:embed testdata/expected.json
	expectedJSON []byte
)

// expectedSeed is the seed whose outputs testdata/expected.json pins,
// besides the sim-traffic draws and the replay input, which are the same
// for every seed.
const expectedSeed = 42

// input is one simulation the benchmark submits: a wire request, which
// resolves to a harness spec the same way the service resolves it, and
// the label its output digest is checked under.
type input struct {
	label string
	req   api.RunRequest
}

// spec resolves the input into a harness spec.
func (in input) spec() (harness.RunSpec, error) {
	spec, _, err := serve.BuildRunSpec(in.req)
	if err != nil {
		return harness.RunSpec{}, fmt.Errorf("%s: %w", in.label, err)
	}
	return spec, nil
}

func seedPtr(seed uint64) *uint64 { return &seed }

// apps1024 is the generated 1024-thread workload of the 8s4t-1024 point:
// 128 applications of 8 threads, half memory-intensive, dealt
// round-robin from each class so every seed runs the same mix.
func apps1024() []string {
	mem := []string{"jacobi", "streamcluster", "needle", "stream_omp"}
	comp := []string{"leukocyte", "lavaMD", "srad", "hotspot", "heartwall"}
	apps := make([]string, 0, 128)
	for i := 0; i < 64; i++ {
		apps = append(apps, mem[i%len(mem)])
	}
	for i := 0; i < 64; i++ {
		apps = append(apps, comp[i%len(comp)])
	}
	return apps
}

// closedInputs is one sim-closed cycle: the paper's Table I machine at
// scale 0.1 under four policies, then the 1024-core point.
func closedInputs(seed uint64) []input {
	s := seedPtr(seed)
	return []input{
		{label("wl6/dike-af", seed), api.RunRequest{Workload: 6, Policy: "dike-af", Scale: 0.1, Seed: s}},
		{label("wl13/dike", seed), api.RunRequest{Workload: 13, Policy: "dike", Scale: 0.1, Seed: s}},
		{label("wl6/dio", seed), api.RunRequest{Workload: 6, Policy: "dio", Scale: 0.1, Seed: s}},
		{label("wl13/cfs", seed), api.RunRequest{Workload: 13, Policy: "cfs", Scale: 0.1, Seed: s}},
		{label("8s4t-1024/dike-af", seed), api.RunRequest{Apps: apps1024(), Policy: "dike-af", Scale: 0.01, Machine: machine1024, Seed: s}},
	}
}

// trafficDraws is how many arrival streams sim-traffic cycles through.
// The draws are fixed, not made from the seed: at offered load 0.95 one
// draw's cost varies with a coefficient of variation of about 35%, so a
// seed-made draw would make the workload's cost a property of the seed.
// The seed picks which draw comes first.
const trafficDraws = 4

// trafficInputs are the sim-traffic inputs in the order seed runs them:
// the three-tenant colocation scenario at offered load 0.95 on each draw,
// under dike-af and cfs.
func trafficInputs(seed uint64) []input {
	var ins []input
	for i := uint64(0); i < trafficDraws; i++ {
		draw := 1 + (seed+i)%trafficDraws
		ins = append(ins,
			input{label("colo-0.95/dike-af", draw), api.RunRequest{Traffic: trafficColo, Policy: "dike-af", Seed: seedPtr(draw)}},
			input{label("colo-0.95/cfs", draw), api.RunRequest{Traffic: trafficColo, Policy: "cfs", Seed: seedPtr(draw)}},
		)
	}
	return ins
}

// label names an output in the checker and in expected.json: the input
// and the run seed it was made with.
func label(name string, seed uint64) string { return fmt.Sprintf("%s@%d", name, seed) }

// replayInput is the run the replay workload records and replays: the
// dvfs8 machine, dike-ea under the fairness governor at a 20 W cap, at run
// seed 42 for every benchmark seed. The recorded run's length moves by
// ±10% with its seed, and a replay's cost with it.
func replayInput() input {
	const seed = 42
	return input{label("wl6/dike-ea/fairness-20w", seed), api.RunRequest{
		Workload: 6, Policy: "dike-ea", Scale: 0.3, Machine: machineDVFS8, Seed: seedPtr(seed),
		Power: json.RawMessage(`{"governor":"fairness","cap_watts":20}`),
	}}
}

// servePolicies rotate across the serve-mix specs.
var servePolicies = []string{"dike", "dike-af", "dio", "cfs"}

// Serve-mix spec families. Each index names one distinct spec; the
// family offsets keep the three sets disjoint for any seed.
const (
	familyHot   = 0
	familyCold  = 1 << 20
	familyFresh = 1 << 30
)

// serveInput is spec i of a serve-mix family: a Table II workload with a
// rotating policy. Hot and cold specs run at scale 0.01 (they are
// simulated during set-up); fresh ones at 0.02, about 100 ms each.
func serveInput(seed uint64, family, i int) input {
	scale, name := 0.01, "hot"
	switch family {
	case familyCold:
		name = "cold"
	case familyFresh:
		scale, name = 0.02, "fresh"
	}
	return input{label(fmt.Sprintf("%s/%d", name, i), seed), api.RunRequest{
		Workload: 1 + (i/len(servePolicies))%16,
		Policy:   servePolicies[i%len(servePolicies)],
		Scale:    scale,
		Seed:     seedPtr(seed*1_000_003 + uint64(family+i)),
	}}
}

// outputDigest is the hex SHA-256 over everything a run computes that a
// user sees: the decision stream (harness.RunDigest), the metrics
// result, the completion time, the energy and the traffic result.
func outputDigest(out *harness.RunOutput) (string, error) {
	var b bytes.Buffer
	b.WriteString(harness.RunDigest(out.Spec.Policy, out.History, out.MetaStats, out.Power))
	res, err := json.Marshal(out.Result)
	if err != nil {
		return "", fmt.Errorf("digest result: %w", err)
	}
	b.Write(res)
	fmt.Fprintf(&b, "\ncompleted_at %d\nenergy_j %s\n", int64(out.CompletedAt), strconv.FormatFloat(out.EnergyJ, 'g', -1, 64))
	tr, err := json.Marshal(out.Traffic)
	if err != nil {
		return "", fmt.Errorf("digest traffic: %w", err)
	}
	b.Write(tr)
	return sha256Hex(b.Bytes()), nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checker compares every output digest with the first one seen under the
// same label, and with testdata/expected.json where it pins the label.
// Traced and untraced passes share a checker, so the traced copy of the
// wiring must reproduce the harness byte for byte.
type checker struct {
	mu   sync.Mutex
	want map[string]string
	seen map[string]string
}

func newChecker(workload string) (*checker, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	c := &checker{want: map[string]string{}, seen: map[string]string{}}
	for k, v := range all[workload] {
		c.want[k] = v
	}
	return c, nil
}

// check records got under label and reports a mismatch as an error.
func (c *checker) check(label, got string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if want, ok := c.want[label]; ok && want != got {
		return fmt.Errorf("output check %s: digest %.12s, want %.12s", label, got, want)
	}
	if prev, ok := c.seen[label]; ok && prev != got {
		return fmt.Errorf("output check %s: digest %.12s differs from the first run's %.12s", label, got, prev)
	}
	c.seen[label] = got
	return nil
}
