package api

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// stub serves handler and returns a Client for it.
func stub(t *testing.T, handler http.HandlerFunc) *Client {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	return &Client{Base: ts.URL, HTTP: ts.Client()}
}

func TestClientDecodes2xx(t *testing.T) {
	var gotType, gotBody string
	c := stub(t, func(w http.ResponseWriter, r *http.Request) {
		gotType = r.Header.Get("Content-Type")
		b, _ := io.ReadAll(r.Body)
		gotBody = string(b)
		WriteJSON(w, http.StatusAccepted, SubmitResponse{ID: "j1", Status: StatusQueued, Digest: "d1", Cached: true})
	})
	var sub SubmitResponse
	code, err := c.Do(context.Background(), http.MethodPost, "/v1/runs", []byte(`{"policy":"dike"}`), &sub)
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("Do = %d, %v; want 202, nil", code, err)
	}
	if sub != (SubmitResponse{ID: "j1", Status: StatusQueued, Digest: "d1", Cached: true}) {
		t.Errorf("decoded %+v", sub)
	}
	if gotType != "application/json" || gotBody != `{"policy":"dike"}` {
		t.Errorf("server saw Content-Type %q, body %q", gotType, gotBody)
	}
}

func TestClientStatusError(t *testing.T) {
	c := stub(t, func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound, errors.New("no such job"))
	})
	var v JobView
	code, err := c.Do(context.Background(), http.MethodGet, "/v1/runs/x", nil, &v)
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("Do = %d, %v; want a *StatusError", code, err)
	}
	if code != http.StatusNotFound || se.Status != "404 Not Found" {
		t.Errorf("code %d, StatusError %q", code, se.Status)
	}
	if want := `{"error":"no such job","code":404}`; se.Body != want {
		t.Errorf("body %q, want %q (trimmed)", se.Body, want)
	}
}

func TestClientTransportErrorHasNoCode(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close()
	code, err := (&Client{Base: ts.URL}).Do(context.Background(), http.MethodGet, "/healthz", nil, nil)
	var se *StatusError
	if code != 0 || err == nil || errors.As(err, &se) {
		t.Errorf("Do on a closed server = %d, %v; want 0 and a transport error", code, err)
	}
}

func TestClientReplyCap(t *testing.T) {
	for _, tc := range []struct {
		size int64
		ok   bool
	}{{MaxReplyBytes, true}, {MaxReplyBytes + 1, false}} {
		c := stub(t, func(w http.ResponseWriter, r *http.Request) {
			// A JSON string of exactly tc.size bytes, quotes included.
			io.WriteString(w, `"`)
			io.CopyN(w, letters{}, tc.size-2)
			io.WriteString(w, `"`)
		})
		var s string
		code, err := c.Do(context.Background(), http.MethodGet, "/big", nil, &s)
		if code != http.StatusOK || (err == nil) != tc.ok {
			t.Errorf("%d-byte reply: Do = %d, %v; want ok=%v", tc.size, code, err, tc.ok)
		}
		if tc.ok && int64(len(s)) != tc.size-2 {
			t.Errorf("%d-byte reply decoded to %d bytes", tc.size, len(s))
		}
	}
}

// letters is an endless stream of 'a'.
type letters struct{}

func (letters) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	return len(p), nil
}

func TestSubmitRequiresJobID(t *testing.T) {
	c := stub(t, func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusAccepted, map[string]string{"status": StatusQueued})
	})
	_, code, err := c.Submit(context.Background(), "/v1/runs", []byte(`{}`))
	if code != http.StatusAccepted || err == nil || !strings.Contains(err.Error(), "no job id") {
		t.Errorf("Submit = %d, %v; want 202 and a missing-id error", code, err)
	}
}

func TestAwaitPollsToTerminal(t *testing.T) {
	var polls atomic.Int64
	c := stub(t, func(w http.ResponseWriter, r *http.Request) {
		status := StatusRunning
		if polls.Add(1) == 3 {
			status = StatusDone
		}
		WriteJSON(w, http.StatusOK, JobView{ID: "j1", Status: status})
	})
	v, err := c.Await(context.Background(), "j1", time.Millisecond)
	if err != nil || v.Status != StatusDone || polls.Load() != 3 {
		t.Errorf("Await = %+v, %v after %d polls; want done after 3", v, err, polls.Load())
	}
}

func TestAwaitStopsOnCancel(t *testing.T) {
	var polls atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	c := stub(t, func(w http.ResponseWriter, r *http.Request) {
		if polls.Add(1) == 2 {
			cancel()
		}
		WriteJSON(w, http.StatusOK, JobView{ID: "j1", Status: StatusRunning})
	})
	done := make(chan error, 1)
	go func() {
		_, err := c.Await(ctx, "j1", time.Millisecond)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Await = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Await did not return after its context was canceled")
	}
	if _, err := c.Await(ctx, "j1", time.Millisecond); !errors.Is(err, context.Canceled) {
		t.Errorf("Await on a canceled context = %v, want context.Canceled", err)
	}
}
