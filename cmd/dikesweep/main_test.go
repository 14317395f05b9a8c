package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"dike/internal/serve"
	"dike/internal/serve/api"
)

// TestSweepDigestMatchesService: the digest dikesweep prints is the
// digest the service resolves the equivalent POST /v1/sweeps body to.
func TestSweepDigestMatchesService(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-wl", "3", "-seed", "7", "-scale", "0.01", "-workers", "2", "-csv", filepath.Join(t.TempDir(), "grid.csv")}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	seed := uint64(7)
	rs, err := serve.ResolveSweep(api.SweepRequest{Workload: 3, Seed: &seed, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\ndigest   "+rs.Digest+"\n") {
		t.Errorf("dikesweep %s does not print the service's digest %s:\n%s", strings.Join(args, " "), rs.Digest, out.String())
	}
}
