package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"testing"

	"dike/internal/power"
)

// outcomeFile pins what every outcome-corpus run computes.
const outcomeFile = "testdata/outcome_digests.json"

// outcomeScale and outcomeWindow shrink the digest corpora to
// outcome-corpus size: closed-loop work is multiplied by outcomeScale
// and traffic arrival windows by outcomeWindow, so the whole corpus runs
// in a few seconds yet every run still executes the full quantum
// pipeline. (A shorter window leaves some traffic specs no arrivals.)
const (
	outcomeScale  = 0.1
	outcomeWindow = 0.4
)

// outcomeSpecs is the outcome corpus: every spec of the digest corpora,
// shrunk, plus run paths those corpora lack — a meta traffic run, a
// governed dike-ea run on the dvfs8 machine, and a recorded dike-af run
// (recording must never change what a run computes).
func outcomeSpecs() []namedSpec {
	var out []namedSpec
	for _, c := range digestCorpora {
		for _, e := range c.specs() {
			out = append(out, namedSpec{name: c.name + "/" + e.name, spec: shrinkSpec(e.spec)})
		}
	}
	wl6 := digestBaseSpec()
	wl6.Scale = 0.05
	recorded := wl6
	recorded.Policy, recorded.Record = PolicyDikeAF, io.Discard
	governed := wl6
	governed.Policy, governed.MachineConfig = PolicyDikeEA, dvfs8Machine()
	governed.Power = &power.Config{Governor: power.GovernorFairness, CapWatts: 16}
	return append(out,
		namedSpec{"extra/traffic-colo-meta", shrinkSpec(RunSpec{Traffic: testTrafficSpec(), Policy: PolicyMeta, Seed: 42})},
		namedSpec{"extra/governed-dike-ea-dvfs8", governed},
		namedSpec{"extra/recorded-dike-af", recorded},
	)
}

// shrinkSpec returns spec at outcome-corpus size.
func shrinkSpec(spec RunSpec) RunSpec {
	if spec.Traffic != nil {
		tr := *spec.Traffic
		tr.HorizonMs = int64(float64(tr.HorizonMs) * outcomeWindow)
		spec.Traffic = &tr
		return spec
	}
	scale := spec.Scale
	if scale == 0 {
		scale = 1
	}
	spec.Scale = scale * outcomeScale
	return spec
}

// outcomeDigest hashes everything a run computes: the decision stream
// (RunDigest), the RunResult, completion time, energy and the traffic
// result.
func outcomeDigest(out *RunOutput) (string, error) {
	var b bytes.Buffer
	b.WriteString(RunDigest(out.Spec.Policy, out.History, out.MetaStats, out.Power))
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
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

func runOutcome(spec RunSpec) (string, error) {
	out, err := Run(context.Background(), spec)
	if err != nil {
		return "", err
	}
	return outcomeDigest(out)
}

// TestOutcomesPinned runs every outcome-corpus spec and compares what it
// computed with the golden file. Spec digests (TestDigestsPinned) pin
// what runs are called; this pins what they compute, so a refactor that
// claims "same behaviour" is checked here. A change meant to alter
// results regenerates the file with GEN_DIGEST_GOLDEN=outcome.
func TestOutcomesPinned(t *testing.T) {
	blob, err := os.ReadFile(outcomeFile)
	if err != nil {
		t.Fatalf("reading golden outcomes: %v", err)
	}
	var golden map[string]string
	if err := json.Unmarshal(blob, &golden); err != nil {
		t.Fatalf("parsing golden outcomes: %v", err)
	}
	specs := outcomeSpecs()
	if len(golden) != len(specs) {
		t.Fatalf("%s has %d entries, corpus has %d — regenerate with GEN_DIGEST_GOLDEN=outcome only for an intentional behaviour change", outcomeFile, len(golden), len(specs))
	}
	for _, e := range specs {
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			want, ok := golden[e.name]
			if !ok {
				t.Fatal("missing from golden file")
			}
			got, err := runOutcome(e.spec)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("outcome drifted\n got %s\nwant %s", got, want)
			}
		})
	}
}
