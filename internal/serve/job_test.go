package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestJobsEvictsOldestFinished: a table keeps at most maxFinishedJobs
// terminal jobs, evicting the one that finished longest ago (finishing
// order, not submission order); queued and running jobs are never
// evicted, and an evicted id answers exactly like one never issued.
func TestJobsEvictsOldestFinished(t *testing.T) {
	jobs := NewJobs("serve")
	mux := http.NewServeMux()
	jobs.Mount(mux.HandleFunc)
	get := func(id string) (int, string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs/"+id, nil))
		body, _ := io.ReadAll(rec.Result().Body)
		return rec.Code, string(body)
	}

	ctx := context.Background()
	queued := jobs.Submit(ctx, "run", "q")
	var running []*Job
	for range 3 {
		j := jobs.Submit(ctx, "run", "r")
		j.Start()
		running = append(running, j)
	}
	// Submitted before every other job, finished after most of them: it
	// must outlive the jobs that finished earlier.
	late := jobs.Submit(ctx, "run", "late")
	late.Start()
	live := 1 + len(running) + 1

	const extra = 100
	var finished []*Job
	for i := range maxFinishedJobs + extra {
		if i == maxFinishedJobs+extra-10 {
			late.Finish(StatusDone, json.RawMessage(`{}`), "")
			finished = append(finished, late)
			live--
		}
		j := jobs.Submit(ctx, "run", "done")
		j.Finish(StatusDone, json.RawMessage(`{}`), "")
		finished = append(finished, j)
		// Each finish retires at most one older job, so the table size is
		// exact after every step: constant work per finish, bounded memory.
		want := live + min(len(finished), maxFinishedJobs)
		jobs.mu.Lock()
		n := len(jobs.byID)
		jobs.mu.Unlock()
		if n != want {
			t.Fatalf("after %d finishes the table holds %d jobs, want %d", len(finished), n, want)
		}
	}

	code, notFound := get("run-999999-nonexist")
	if code != http.StatusNotFound {
		t.Fatalf("unknown id: status %d", code)
	}
	evicted := len(finished) - maxFinishedJobs
	for i, j := range finished {
		code, body := get(j.ID())
		switch {
		case i < evicted && (code != http.StatusNotFound || body != notFound):
			t.Fatalf("finished job %d (%s) should be evicted: %d %s", i, j.ID(), code, body)
		case i >= evicted && code != http.StatusOK:
			t.Fatalf("finished job %d (%s) should be kept: %d %s", i, j.ID(), code, body)
		}
	}
	if code, _ := get(late.ID()); code != http.StatusOK {
		t.Errorf("late-finishing job %s evicted before jobs that finished earlier", late.ID())
	}
	for _, j := range append(running, queued) {
		if code, body := get(j.ID()); code != http.StatusOK {
			t.Errorf("%s job %s evicted: %d %s", j.Status(), j.ID(), code, body)
		}
	}
}
