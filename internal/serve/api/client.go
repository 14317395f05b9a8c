package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// MaxReplyBytes caps every reply body a Client reads. The largest body
// on the wire is a job view carrying a run or sweep result, a few KiB;
// the cap only stops a broken or hostile peer from growing the caller's
// heap without bound.
const MaxReplyBytes = 16 << 20

// MaxRequestBytes caps every request body a daemon decodes. The largest
// body on the wire is a run carrying a machine and a traffic document, a
// few KiB; the cap stops one request from growing a daemon's heap
// without bound.
const MaxRequestBytes = 16 << 20

// Client calls the /v1 API of one dikeserved worker or dikecoord
// coordinator. It carries no policy: timeouts come from the caller's
// context and HTTP client, and retries, breakers and counters stay with
// the caller, which classifies each outcome by its status code.
type Client struct {
	// Base is the server's base URL, e.g. http://127.0.0.1:8080.
	Base string
	// HTTP sends the requests; nil means http.DefaultClient.
	HTTP *http.Client
}

// StatusError is a reply outside 2xx. Do returns its code beside it.
type StatusError struct {
	Status string // e.g. "503 Service Unavailable"
	Body   string // the reply body, whitespace-trimmed
}

func (e *StatusError) Error() string {
	if e.Body == "" {
		return e.Status
	}
	return e.Status + ": " + e.Body
}

// Do sends method path with body as JSON (no body when nil) and, on a
// 2xx reply, decodes the reply into out (skipped when out is nil). Any
// other reply returns a *StatusError. code is the reply's status, 0
// exactly when no reply arrived; the error is then the HTTP client's
// own. A 2xx reply that cannot be read in full or does not decode
// returns its code and a plain error.
func (c *Client) Do(ctx context.Context, method, path string, body []byte, out any) (code int, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, MaxReplyBytes+1))
	if resp.StatusCode/100 != 2 {
		// The body only explains the status, so a short read still
		// yields the StatusError.
		return resp.StatusCode, &StatusError{Status: resp.Status, Body: string(bytes.TrimSpace(blob))}
	}
	if err == nil && len(blob) > MaxReplyBytes {
		err = fmt.Errorf("reply exceeds %d bytes", MaxReplyBytes)
	}
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if out != nil {
		if err := json.Unmarshal(blob, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decode reply: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// Submit posts a run or sweep request to path (/v1/runs or /v1/sweeps).
// A 2xx reply without a job id is an error.
func (c *Client) Submit(ctx context.Context, path string, body []byte) (SubmitResponse, int, error) {
	var sub SubmitResponse
	code, err := c.Do(ctx, http.MethodPost, path, body, &sub)
	if err == nil && sub.ID == "" {
		err = errors.New("submit reply has no job id")
	}
	return sub, code, err
}

// Job fetches one job's current view.
func (c *Client) Job(ctx context.Context, id string) (JobView, int, error) {
	var v JobView
	code, err := c.Do(ctx, http.MethodGet, "/v1/runs/"+id, nil, &v)
	return v, code, err
}

// Await polls job id every interval until it reaches a terminal status.
// The first failed poll ends the wait with that poll's error, and so
// does ctx.
func (c *Client) Await(ctx context.Context, id string, every time.Duration) (JobView, error) {
	for {
		v, _, err := c.Job(ctx, id)
		if err != nil || Terminal(v.Status) {
			return v, err
		}
		select {
		case <-ctx.Done():
			return v, ctx.Err()
		case <-time.After(every):
		}
	}
}
