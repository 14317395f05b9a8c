package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dike/internal/harness"
	simmetrics "dike/internal/metrics"
	"dike/internal/serve"
	"dike/internal/serve/api"
)

// TestJobLifecycleWire drives a worker and a coordinator through the
// same job routes and pins their bodies byte for byte: an unknown id is
// a 404 on GET, DELETE and events; DELETE cancels a running job; and
// the events stream of a finished or canceled job is exactly one
// terminal NDJSON line, whether the client attaches before or after the
// job ends.
func TestJobLifecycleWire(t *testing.T) {
	// Seed 1 finishes at once; any other seed blocks until canceled.
	var calls atomic.Int64
	fast := stubRun(&calls)
	simulate := func(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error) {
		if spec.Seed == 1 {
			return fast(ctx, spec)
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, worker := newWorker(t, serve.Config{Workers: 2, Simulate: simulate})
	_, fronted := newWorker(t, serve.Config{Workers: 2, Simulate: simulate})
	_, coord := newCoord(t, []string{fronted.URL}, nil)

	for _, tc := range []struct {
		name     string
		base     string
		notFound string
	}{
		{"serve", worker.URL, `{"error":"serve: no such job","code":404}` + "\n"},
		{"cluster", coord.URL, `{"error":"cluster: no such job","code":404}` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, route := range [][2]string{
				{http.MethodGet, "/v1/runs/run-999999-nope"},
				{http.MethodDelete, "/v1/runs/run-999999-nope"},
				{http.MethodGet, "/v1/runs/run-999999-nope/events"},
			} {
				code, body := call(t, route[0], tc.base+route[1])
				if code != http.StatusNotFound || body != tc.notFound {
					t.Errorf("%s %s: %d %q, want 404 %q", route[0], route[1], code, body, tc.notFound)
				}
			}

			done := submit(t, tc.base, "/v1/runs", `{"workload": 1, "policy": "cfs", "scale": 0.05, "seed": 1}`)
			if v := await(t, tc.base, done.ID, 10*time.Second); v.Status != api.StatusDone {
				t.Fatalf("finished job: %s: %s", v.Status, v.Error)
			}
			if code, body := call(t, http.MethodGet, tc.base+"/v1/runs/"+done.ID+"/events"); code != http.StatusOK || body != `{"status":"done"}`+"\n" {
				t.Errorf("events of a finished job: %d %q", code, body)
			}

			running := submit(t, tc.base, "/v1/runs", `{"workload": 1, "policy": "cfs", "scale": 0.05, "seed": 2}`)
			live := make(chan string, 1)
			go func() {
				resp, err := http.Get(tc.base + "/v1/runs/" + running.ID + "/events")
				if err != nil {
					live <- err.Error()
					return
				}
				defer resp.Body.Close()
				b, _ := io.ReadAll(resp.Body)
				live <- string(b)
			}()
			awaitStatus(t, tc.base, running.ID, api.StatusRunning)

			code, body := call(t, http.MethodDelete, tc.base+"/v1/runs/"+running.ID)
			var dv api.JobView
			if err := json.Unmarshal([]byte(body), &dv); code != http.StatusAccepted || err != nil || dv.ID != running.ID {
				t.Fatalf("DELETE: %d %q", code, body)
			}
			v := await(t, tc.base, running.ID, 10*time.Second)
			if v.Status != api.StatusCanceled || v.Error != "" || v.Result != nil {
				t.Fatalf("canceled view: %+v", v)
			}
			want := `{"status":"canceled"}` + "\n"
			select {
			case got := <-live:
				if got != want {
					t.Errorf("events attached before cancel: %q, want %q", got, want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("events stream did not end after cancel")
			}
			if code, body := call(t, http.MethodGet, tc.base+"/v1/runs/"+running.ID+"/events"); code != http.StatusOK || body != want {
				t.Errorf("events of a canceled job: %d %q, want %q", code, body, want)
			}
		})
	}
}

// call performs one request and returns its status and body.
func call(t *testing.T, method, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// awaitStatus polls a job until it reports status.
func awaitStatus(t *testing.T, base, id, status string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, body := call(t, http.MethodGet, base+"/v1/runs/"+id)
		var v api.JobView
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == status {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, status)
}

// TestTrailingBodyRejected posts bodies with bytes after their JSON
// value to a worker and a coordinator: both refuse them with the same
// 400 body, on runs and sweeps alike, and trailing whitespace is no
// reason to refuse.
func TestTrailingBodyRejected(t *testing.T) {
	var calls atomic.Int64
	_, worker := newWorker(t, serve.Config{Workers: 2, Simulate: stubRun(&calls)})
	_, fronted := newWorker(t, serve.Config{Workers: 2, Simulate: stubRun(&calls)})
	_, coord := newCoord(t, []string{fronted.URL}, nil)
	post := func(url, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	const refused = `{"error":"bad request body: data after the JSON value","code":400}` + "\n"
	bodies := map[string]string{
		"/v1/runs":   `{"workload":1,"policy":"cfs","scale":0.01}`,
		"/v1/sweeps": `{"workload":1,"scale":0.01}`,
	}
	for path, body := range bodies {
		for _, tail := range []string{" x", "}", " {}", " 1", " trailing garbage {"} {
			for _, base := range []string{worker.URL, coord.URL} {
				if code, got := post(base+path, body+tail); code != http.StatusBadRequest || got != refused {
					t.Errorf("%s %q: %d %q, want 400 %q", path, body+tail, code, got, refused)
				}
			}
		}
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("refused bodies simulated %d times", n)
	}
	for _, tail := range []string{"\n", "  \n\t "} {
		for _, base := range []string{worker.URL, coord.URL} {
			if code, got := post(base+"/v1/runs", bodies["/v1/runs"]+tail); code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("run body + %q: %d %q, want it accepted", tail, code, got)
			}
		}
	}
}

// longBody is a request body of limit bytes: head, then fill repeated;
// n counts the bytes read from it.
type longBody struct {
	head  string
	fill  byte
	n     int
	limit int
}

func (b *longBody) Read(p []byte) (int, error) {
	if b.n >= b.limit {
		return 0, io.EOF
	}
	p = p[:min(len(p), b.limit-b.n)]
	for i := range p {
		p[i] = b.fill
		if j := b.n + i; j < len(b.head) {
			p[i] = b.head[j]
		}
	}
	b.n += len(p)
	return len(p), nil
}

// TestOversizedBodyRejected posts bodies four times api.MaxRequestBytes
// to every route of a worker and a coordinator that decodes one: a
// string that never closes, and a small value followed by whitespace.
// Each must get 413 having read at most one byte past the cap, and the
// process must have allocated a small multiple of the cap, not of the
// body. A run carrying the largest example machine and traffic documents
// is still accepted by both.
func TestOversizedBodyRejected(t *testing.T) {
	// A traffic run has no workload, which stubRun names.
	simulate := func(_ context.Context, spec harness.RunSpec) (*harness.RunOutput, error) {
		return &harness.RunOutput{Result: &simmetrics.RunResult{Policy: spec.Policy}, CompletedAt: 100}, nil
	}
	w, worker := newWorker(t, serve.Config{Workers: 2, Simulate: simulate})
	_, fronted := newWorker(t, serve.Config{Workers: 2, Simulate: simulate})
	c, coord := newCoord(t, []string{fronted.URL}, nil)
	routes := []struct {
		name string
		h    http.Handler
		path string
	}{
		{"worker", w.Handler(), "/v1/runs"},
		{"worker", w.Handler(), "/v1/sweeps"},
		{"coordinator", c.Handler(), "/v1/runs"},
		{"coordinator", c.Handler(), "/v1/sweeps"},
		{"coordinator", c.Handler(), "/v1/cluster/workers"},
	}
	for _, r := range routes {
		for _, shape := range []struct{ head, fill string }{{`{"policy":"`, "a"}, {`{}`, " "}} {
			body := &longBody{head: shape.head, fill: shape.fill[0], limit: 4 * api.MaxRequestBytes}
			rec := httptest.NewRecorder()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, body))
			runtime.ReadMemStats(&after)
			where := fmt.Sprintf("%s POST %s (%q then %q)", r.name, r.path, shape.head, shape.fill)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s: %d %q, want 413", where, rec.Code, rec.Body)
			}
			if body.n > api.MaxRequestBytes+1 {
				t.Errorf("%s: read %d bytes, cap %d", where, body.n, api.MaxRequestBytes)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 6*api.MaxRequestBytes {
				t.Errorf("%s: allocated %d MiB for a %d MiB cap", where, alloc>>20, api.MaxRequestBytes>>20)
			}
		}
	}

	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	big := fmt.Sprintf(`{"policy":"cfs","seed":2,"machine":%s,"traffic":%s}`,
		read("../../examples/machines/big4x4.json"), read("../../examples/traffic/colo.json"))
	for _, base := range []string{worker.URL, coord.URL} {
		resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Errorf("%s: largest example run: %d %s, want 202", base, resp.StatusCode, b)
		}
	}
}
