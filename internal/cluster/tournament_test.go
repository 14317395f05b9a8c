package cluster

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"dike/internal/harness"
	"dike/internal/serve"
	"dike/internal/store"
)

// TestServedTournamentMatchesLocal runs the quick tournament grid
// through a coordinator over two store-backed workers. The served grid
// must write the same bench document as the local one, byte for byte,
// and a second served grid must be answered without a simulation.
func TestServedTournamentMatchesLocal(t *testing.T) {
	var sims atomic.Int64
	simulate := func(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error) {
		sims.Add(1)
		return harness.Run(ctx, spec)
	}
	var urls []string
	for i := 0; i < 2; i++ {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() }) // runs after the worker drains
		_, ts := newWorker(t, serve.Config{Workers: 2, Store: st, Simulate: simulate})
		urls = append(urls, ts.URL)
	}
	_, coord := newCoord(t, urls, nil)

	e, err := harness.Lookup("tournament")
	if err != nil {
		t.Fatal(err)
	}
	grid := func(server string) []byte {
		t.Helper()
		dir := t.TempDir()
		if _, err := e.Run(harness.Options{Quick: true, TournamentServer: server, BenchDir: dir}); err != nil {
			t.Fatal(err)
		}
		doc, err := os.ReadFile(filepath.Join(dir, "BENCH_tournament.json"))
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	local := grid("")
	if served := grid(coord.URL); !bytes.Equal(served, local) {
		t.Errorf("served grid document differs from the local one:\nserved %s\nlocal  %s", served, local)
	}
	if n := sims.Load(); n != 6 {
		t.Errorf("first served grid ran %d simulations, want one per cell (6)", n)
	}
	sims.Store(0)
	if again := grid(coord.URL); !bytes.Equal(again, local) {
		t.Errorf("second served grid document differs from the local one")
	}
	if n := sims.Load(); n != 0 {
		t.Errorf("second served grid ran %d simulations, want 0", n)
	}
}
