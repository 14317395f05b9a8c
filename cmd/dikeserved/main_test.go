package main

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dike/internal/store"
)

// TestOpenStoreLogsRecovery reopens a store whose last append was torn
// by a kill, as a restarted dikeserved -store-dir does: the daemon
// logs what the store holds and the torn record it cut away.
func TestOpenStoreLogsRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b"} {
		if err := s.Put(key, nil, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "*"))
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("torn"))
	f.Close()

	var logs bytes.Buffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	st, err := openStore(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	for _, want := range []string{
		"store " + dir + ": 2 results in 1 segments",
		"store recovery: truncated 1 torn record(s) (4 bytes), skipped 0 corrupt record(s)",
	} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, logs.String())
		}
	}
	if _, err := openStore(filepath.Join(segs[0], "store"), store.Options{}); err == nil || !strings.HasPrefix(err.Error(), "open store ") {
		t.Errorf("opening a store inside a segment file: %v", err)
	}
}
