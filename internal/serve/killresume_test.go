package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"dike/internal/serve/api"
	"dike/internal/store"
)

// childEnvDir gates the re-exec'd child: when set, TestStoreChildProcess
// boots a real store-backed server instead of skipping.
const childEnvDir = "DIKE_STORE_CHILD_DIR"

// TestStoreChildProcess is not a test in its own right: it is the body
// of the subprocess that TestServeKillNineResume SIGKILLs. Re-exec'ing
// the test binary with -test.run pinned here is the standard way to get
// a genuinely killable process without building a separate binary.
func TestStoreChildProcess(t *testing.T) {
	dir := os.Getenv(childEnvDir)
	if dir == "" {
		t.Skip("not a child invocation")
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2, SweepWorkers: 2, Store: st})
	s.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The parent scrapes this line off our stdout to find us.
	fmt.Printf("CHILD_ADDR=http://%s\n", ln.Addr())
	os.Stdout.Sync()
	if err := http.Serve(ln, s.Handler()); err != nil {
		t.Fatal(err)
	}
}

// startChild re-execs the test binary as a store-backed server over dir
// and returns its process and base URL.
func startChild(t *testing.T, dir string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestStoreChildProcess$", "-test.v")
	cmd.Env = append(os.Environ(), childEnvDir+"="+dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "CHILD_ADDR="); ok {
				addrCh <- addr
				break
			}
		}
		// Keep draining so the child never blocks on a full pipe.
		for sc.Scan() {
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr
	case <-time.After(30 * time.Second):
		t.Fatal("child never announced its address")
		return nil, ""
	}
}

// childStoreStats fetches and decodes a child's /v1/store/stats.
func childStoreStats(t *testing.T, base string) store.Stats {
	t.Helper()
	var view api.StoreStatsView
	getJSON(t, base+"/v1/store/stats", &view)
	var st store.Stats
	if err := json.Unmarshal(view.Stats, &st); err != nil {
		t.Fatalf("decode store stats: %v", err)
	}
	return st
}

// scrapeCounter pulls one un-labelled numeric metric off /metrics.
func scrapeCounter(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("parse %s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// TestServeKillNineResume is the crash-recovery acceptance test: a real
// dikeserved-shaped process is SIGKILLed mid-sweep, a second process
// over the same store directory recovers, resumes the sweep from the
// grid points the first one stored (simulating only the rest), and
// produces a result byte-identical to harness.Sweep.
func TestServeKillNineResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and runs real sweeps")
	}
	dir := t.TempDir()
	sweepBody := `{"workload":1,"scale":0.02,"seed":33}`

	// Process 1: submit the sweep, wait for two stored points, SIGKILL.
	child1, base1 := startChild(t, dir)
	resp, raw := postJSON(t, base1+"/v1/sweeps", sweepBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("child submit = %d, body %s", resp.StatusCode, raw)
	}
	var sub api.SubmitResponse
	json.Unmarshal(raw, &sub)

	deadline := time.Now().Add(60 * time.Second)
	for {
		st := childStoreStats(t, base1)
		if st.Results >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no durable sweep progress before deadline: %+v", st)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err := child1.Process.Kill(); err != nil { // SIGKILL — no drain, no fsync
		t.Fatal(err)
	}
	child1.Wait()

	// Process 2: same directory. Recovery must surface the stored
	// points, and resubmitting the same sweep must resume, not restart.
	child2, base2 := startChild(t, dir)
	stored := childStoreStats(t, base2).Results
	if stored < 2 {
		t.Fatalf("recovered %d results, want at least the 2 seen before the kill", stored)
	}
	resp2, raw2 := postJSON(t, base2+"/v1/sweeps", sweepBody)
	var sub2 api.SubmitResponse
	json.Unmarshal(raw2, &sub2)
	if resp2.StatusCode != http.StatusAccepted || sub2.Stored {
		t.Fatalf("resubmit = %d (%s): the sweep finished before the kill, so nothing was resumed", resp2.StatusCode, raw2)
	}
	if sub2.Digest != sub.Digest {
		t.Fatalf("sweep digest changed across processes: %s vs %s", sub2.Digest, sub.Digest)
	}
	v := waitDone(t, base2, sub2.ID)
	if v.Status != api.StatusDone {
		t.Fatalf("resumed sweep = %s: %s", v.Status, v.Error)
	}
	sims := scrapeCounter(t, base2, "dike_serve_simulations_total")
	hits := scrapeCounter(t, base2, "dike_store_hits_total")
	if sims >= 32 || hits != float64(stored) || sims+hits != 32 {
		t.Errorf("resumed process simulated %v points and read %v from the store, want 32-%d and %d", sims, hits, stored, stored)
	}
	child2.Process.Kill()
	child2.Wait()

	// Reference: harness.Sweep itself, independent of the executor.
	if ref := harnessSweepJSON(t, 1, 33, 0.02); !bytes.Equal(v.Result, ref) {
		t.Errorf("kill-resume grid differs from harness.Sweep:\n  resumed   %s\n  reference %s", v.Result, ref)
	}
}
