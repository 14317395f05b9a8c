package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"dike/internal/tournament"
)

// metaIsolationSpec is the shared scenario for the shadow-isolation
// pair: a mid-load open-loop run, long enough for several tournament
// epochs but short enough for the test budget.
func metaIsolationSpec(mc *tournament.Config, rec *bytes.Buffer) RunSpec {
	return RunSpec{
		Traffic: sloTraffic(0.70, 6000),
		Policy:  PolicyMeta,
		Seed:    42,
		Meta:    mc,
		Record:  rec,
	}
}

// afterHeader returns a replay log without its first line. The header
// carries the policy's config blob, which legitimately differs between
// the isolation pair; every line after it is the platform interaction
// stream, which must not.
func afterHeader(t *testing.T, log []byte) []byte {
	t.Helper()
	i := bytes.IndexByte(log, '\n')
	if i < 0 {
		t.Fatal("replay log has no header line")
	}
	return log[i+1:]
}

func TestMetaShadowIsolation(t *testing.T) {
	// Shadows must only read the tape, never the platform: a meta run
	// whose tournaments are disabled (EpochMs < 0) and one whose
	// tournaments all run but can never switch (absurd margin) must
	// drive the live platform identically. The recorder logs every
	// sample, quantum and affinity action the policy exchanged with the
	// platform, so byte-comparing them catches any shadow leakage —
	// a stray counter read, an extra placement, anything.
	cands := append([]string(nil), DefaultMetaCandidates...)
	var logOff, logOn bytes.Buffer
	off, err := Run(context.Background(), metaIsolationSpec(
		&tournament.Config{EpochMs: -1, Candidates: cands}, &logOff))
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(context.Background(), metaIsolationSpec(
		&tournament.Config{SwitchMargin: 1e9, Candidates: cands}, &logOn))
	if err != nil {
		t.Fatal(err)
	}

	// The pair really exercised the two modes.
	if n := len(off.MetaStats.Epochs); n != 0 {
		t.Errorf("disabled run held %d tournaments, want 0", n)
	}
	if n := len(on.MetaStats.Epochs); n == 0 {
		t.Error("margin run held no tournaments; the isolation pair tests nothing")
	}
	if sw := on.MetaStats.Switches; sw != 0 {
		t.Errorf("margin run switched %d times despite margin 1e9", sw)
	}
	if on.MetaStats.ShadowQuanta == 0 {
		t.Error("margin run replayed no shadow quanta")
	}

	if !bytes.Equal(afterHeader(t, logOff.Bytes()), afterHeader(t, logOn.Bytes())) {
		t.Error("platform interaction streams differ: shadow tournaments leaked into the live run")
	}
	ja, err := json.Marshal(off.Traffic)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(on.Traffic)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Errorf("traffic results differ:\n  disabled: %s\n  margin:   %s", ja, jb)
	}
}

func TestMetaDeterministicDigest(t *testing.T) {
	// Same spec, same seed → byte-identical decision stream and
	// tournament record. This is the acceptance criterion's determinism
	// leg at unit scope.
	spec := RunSpec{Traffic: sloTraffic(0.85, 6000), Policy: PolicyMeta, Seed: 7}
	a, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	da := RunDigest(PolicyMeta, a.History, a.MetaStats, nil)
	db := RunDigest(PolicyMeta, b.History, b.MetaStats, nil)
	if da != db {
		t.Error("meta run digests differ across identical runs")
	}
	if a.MetaStats.Digest() == "" {
		t.Error("meta stats digest is empty")
	}
}

func TestMetaRecordReplayParity(t *testing.T) {
	// A meta run's recording must replay to the identical tournament
	// stream: Replay rebuilds the meta policy from the log's config
	// blob, re-runs every epoch against the recorded tape and lands on
	// the same switches.
	var log bytes.Buffer
	spec := RunSpec{Traffic: sloTraffic(0.70, 6000), Policy: PolicyMeta, Seed: 42, Record: &log}
	live, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(&log)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Policy != PolicyMeta {
		t.Fatalf("replayed policy = %q, want %q", rep.Policy, PolicyMeta)
	}
	if rep.MetaStats == nil {
		t.Fatal("replay produced no meta stats")
	}
	ld := RunDigest(PolicyMeta, live.History, live.MetaStats, nil)
	rd := RunDigest(PolicyMeta, rep.History, rep.MetaStats, nil)
	if ld != rd {
		t.Error("live and replayed meta digests differ")
	}
}

func TestMetaRegistryEnumeration(t *testing.T) {
	// The registry is the single source of policy truth: every default
	// meta candidate must be a registered, shadow-eligible policy, and
	// the meta policy itself must be registered but not auditionable
	// (a meta-inside-meta shadow would recurse).
	infos := Policies()
	byName := make(map[string]PolicyInfo, len(infos))
	for _, p := range infos {
		if p.Description == "" {
			t.Errorf("policy %q has no description", p.Name)
		}
		byName[p.Name] = p
	}
	for _, name := range DefaultMetaCandidates {
		p, ok := byName[name]
		if !ok {
			t.Errorf("default candidate %q is not registered", name)
			continue
		}
		if !p.MetaCandidate {
			t.Errorf("default candidate %q is not meta-eligible", name)
		}
	}
	mp, ok := byName[PolicyMeta]
	if !ok {
		t.Fatalf("policy %q is not registered", PolicyMeta)
	}
	if mp.MetaCandidate {
		t.Errorf("%q must not be its own shadow candidate", PolicyMeta)
	}
}
