package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"dike/internal/workload"
)

// editHeader returns log with its header line rewritten by edit, which
// works on the header's top-level fields.
func editHeader(t *testing.T, log []byte, edit func(h map[string]json.RawMessage)) []byte {
	t.Helper()
	line, rest, ok := bytes.Cut(log, []byte("\n"))
	if !ok {
		t.Fatal("log has no header line")
	}
	var h map[string]json.RawMessage
	if err := json.Unmarshal(line, &h); err != nil {
		t.Fatal(err)
	}
	edit(h)
	out, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	return append(append(out, '\n'), rest...)
}

// TestReplayHeaderErrors: Replay rebuilds the policy from the log header
// alone, so every malformed header must surface as an error — never a
// panic — and a header without a policy config must resolve exactly as
// a live spec without an override does.
func TestReplayHeaderErrors(t *testing.T) {
	spec := RunSpec{Workload: workload.MustTable2(6), Policy: PolicyDikeAF, Seed: 42, Scale: 0.05}
	out, log := recordRun(t, spec)
	raw := func(s string) json.RawMessage { return json.RawMessage(s) }

	cases := []struct {
		name string
		edit func(h map[string]json.RawMessage)
		// want is the error the replay must match with errors.Is; nil
		// means any error.
		want error
	}{
		{"unknown policy", func(h map[string]json.RawMessage) { h["policy"] = raw(`"nope"`) }, ErrUnknownPolicy},
		{"oracle without static", func(h map[string]json.RawMessage) { h["policy"] = raw(`"oracle"`) }, nil},
		{"malformed dike config", func(h map[string]json.RawMessage) { h["policyConfig"] = raw(`"fast"`) }, nil},
		{"malformed meta config", func(h map[string]json.RawMessage) {
			h["policy"], h["policyConfig"] = raw(`"meta"`), raw(`[1,2]`)
		}, nil},
		{"malformed power setup", func(h map[string]json.RawMessage) { h["power"] = raw(`{"config":7}`) }, nil},
		{"unknown governor", func(h map[string]json.RawMessage) { h["power"] = raw(`{"config":{"governor":"turbo"}}`) }, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Replay(bytes.NewReader(editHeader(t, log, c.edit)))
			if err == nil {
				t.Fatal("replay accepted the header")
			}
			if c.want != nil && !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}

	t.Run("no policy config", func(t *testing.T) {
		rep, err := Replay(bytes.NewReader(editHeader(t, log, func(h map[string]json.RawMessage) { delete(h, "policyConfig") })))
		if err != nil {
			t.Fatal(err)
		}
		live := RunDigest(spec.Policy, out.History, out.MetaStats, out.Power)
		if got := RunDigest(rep.Policy, rep.History, rep.MetaStats, rep.Power); got != live {
			t.Fatalf("replay without policyConfig differs from the live run:\nlive:\n%s\nreplay:\n%s", live, got)
		}
	})
}
