package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dike/internal/store"
)

// dikestore runs one command line and returns its exit status and
// stdout.
func dikestore(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out bytes.Buffer
	code := run(args, &out)
	return code, out.String()
}

// TestVerifyCompactVerifyStats walks the offline maintenance sequence
// after a daemon died mid-append: verify reports the torn tail with
// exit status 1, compact recovers and rewrites the live records, and
// the compacted store verifies clean and keeps every live result.
func TestVerifyCompactVerifyStats(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]string{{"a", `{"v":1}`}, {"b", `{"v":2}`}, {"a", `{"v":3}`}} {
		if err := s.Put(kv[0], nil, []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutCheckpoint("sweep", []byte(`{"done":[0]}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// A kill -9 mid-append leaves a partial frame after the last record.
	segs, _ := filepath.Glob(filepath.Join(dir, "*"))
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("torn"))
	f.Close()

	var rep store.VerifyReport
	code, out := dikestore(t, "-dir", dir, "verify")
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("verify report %q: %v", out, err)
	}
	if code != 1 || rep.TornTailBytes != 4 {
		t.Fatalf("verify of a torn store: exit %d, %+v; want exit 1 and 4 torn bytes", code, rep)
	}

	code, out = dikestore(t, "-dir", dir, "compact")
	if code != 0 || !strings.HasPrefix(out, "compacted: ") || !strings.Contains(out, "(3 live records)") {
		t.Fatalf("compact: exit %d, %q", code, out)
	}

	code, out = dikestore(t, "-dir", dir, "verify")
	rep = store.VerifyReport{}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("verify report %q: %v", out, err)
	}
	if code != 0 || !rep.Clean() || rep.ValidRecords != 3 || rep.SupersededRecords != 0 {
		t.Fatalf("verify after compact: exit %d, %+v; want exit 0, clean, 3 records", code, rep)
	}

	var st store.Stats
	code, out = dikestore(t, "-dir", dir, "stats")
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("stats %q: %v", out, err)
	}
	if code != 0 || st.Results != 2 || st.Checkpoints != 1 || st.TruncatedRecords != 0 {
		t.Fatalf("stats: exit %d, %+v; want 2 results and 1 checkpoint", code, st)
	}

	if code, out = dikestore(t, "-dir", dir, "get", "a"); code != 0 || !strings.Contains(out, `"v": 3`) {
		t.Errorf("get a: exit %d, %q; want the latest value", code, out)
	}
	for _, args := range [][]string{{"verify"}, {"-dir", dir}, {"-dir", dir, "get"}, {"-dir", dir, "frobnicate"}} {
		if code, _ := dikestore(t, args...); code != 2 {
			t.Errorf("dikestore %q: exit %d, want 2", args, code)
		}
	}
}
