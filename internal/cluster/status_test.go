package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dike/internal/serve/api"
)

// reply is one canned worker answer in the status-mapping table.
type reply string

const (
	replyOK        reply = "2xx"
	replyTransport reply = "transport"
	reply429       reply = "429"
	reply5xx       reply = "5xx"
	reply4xx       reply = "4xx"
	replyBadBody   reply = "bad-body"
	replyNoID      reply = "no-id"
)

// write answers one request with r; ok is the route's well-formed 2xx
// body and code its status.
func (r reply) write(w http.ResponseWriter, code int, ok string) {
	switch r {
	case replyOK:
		writeRaw(w, code, ok)
	case replyTransport:
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close() // the caller sees the connection drop, no reply
		}
	case reply429:
		w.Header().Set("Retry-After", "1")
		writeRaw(w, http.StatusTooManyRequests, `{"error":"queue full","code":429}`)
	case reply5xx:
		writeRaw(w, http.StatusServiceUnavailable, `{"error":"draining","code":503}`)
	case reply4xx:
		writeRaw(w, http.StatusNotFound, `{"error":"no such thing","code":404}`)
	case replyBadBody:
		writeRaw(w, code, `{"id": trunc`)
	case replyNoID:
		writeRaw(w, code, `{"status":"queued"}`)
	}
}

func writeRaw(w http.ResponseWriter, code int, body string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write([]byte(body))
}

// breakerOf reads one worker's consecutive breaker failures and whether
// any health observation reached it at all.
func breakerOf(c *Coordinator, url string) (fails int, observed bool) {
	w := c.reg.get(url)
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.brk.fails, !w.lastProbe.IsZero()
}

// TestWorkerStatusMapping pins how the coordinator classifies each kind
// of worker answer on its three outbound calls: whether it retries, ends
// the placement, or moves on to the next worker, and what it tells the
// worker's breaker. A 429 is healthy backpressure and leaves the breaker
// alone; a 2xx with a body the coordinator cannot use is retried without
// a breaker failure, because the worker did answer.
func TestWorkerStatusMapping(t *testing.T) {
	type want struct {
		posts    int    // submissions the worker saw
		fails    int    // consecutive breaker failures afterwards
		observed bool   // whether the breaker saw any observation
		status   string // the coordinator job's terminal status
	}
	// RetryBudget is 2, so a retried placement submits twice. On the
	// poll rows the successful submission clears the breaker's failure
	// streak before each poll, so a failing poll leaves exactly one.
	placements := []struct {
		call  string
		reply reply
		want  want
	}{
		{"submit", replyOK, want{1, 0, true, api.StatusDone}},
		{"submit", replyTransport, want{2, 2, true, api.StatusFailed}},
		{"submit", reply429, want{2, 0, false, api.StatusFailed}},
		{"submit", reply5xx, want{2, 2, true, api.StatusFailed}},
		{"submit", reply4xx, want{1, 0, false, api.StatusFailed}},
		{"submit", replyBadBody, want{2, 0, true, api.StatusFailed}},
		{"submit", replyNoID, want{2, 0, true, api.StatusFailed}},
		{"poll", replyOK, want{1, 0, true, api.StatusDone}},
		{"poll", replyTransport, want{2, 1, true, api.StatusFailed}},
		{"poll", reply429, want{2, 1, true, api.StatusFailed}},
		{"poll", reply5xx, want{2, 1, true, api.StatusFailed}},
		{"poll", reply4xx, want{2, 1, true, api.StatusFailed}},
		{"poll", replyBadBody, want{2, 0, true, api.StatusFailed}},
	}
	for _, tc := range placements {
		t.Run(tc.call+"/"+string(tc.reply), func(t *testing.T) {
			var posts atomic.Int64
			worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.Method == http.MethodPost && r.URL.Path == "/v1/runs":
					posts.Add(1)
					sub := `{"id":"j1","status":"queued","digest":"d1"}`
					if tc.call == "submit" {
						tc.reply.write(w, http.StatusAccepted, sub)
					} else {
						writeRaw(w, http.StatusAccepted, sub)
					}
				case r.Method == http.MethodGet && r.URL.Path == "/v1/runs/j1":
					done := `{"id":"j1","kind":"run","status":"done","digest":"d1","result":{"ok":true}}`
					if tc.call == "poll" {
						tc.reply.write(w, http.StatusOK, done)
					} else {
						writeRaw(w, http.StatusOK, done)
					}
				case r.Method == http.MethodDelete:
					writeRaw(w, http.StatusOK, `{"id":"j1","status":"canceled"}`)
				default:
					http.NotFound(w, r)
				}
			}))
			defer worker.Close()
			c, coord := newCoord(t, []string{worker.URL}, func(cfg *Config) {
				cfg.RetryBudget = 2
				cfg.Breaker.DownAfter = 10
			})
			sub := submit(t, coord.URL, "/v1/runs", `{"workload":1,"policy":"dike","scale":0.02}`)
			v := await(t, coord.URL, sub.ID, 10*time.Second)
			fails, observed := breakerOf(c, worker.URL)
			got := want{int(posts.Load()), fails, observed, v.Status}
			if got != tc.want {
				t.Errorf("got %+v, want %+v (job error: %s)", got, tc.want, v.Error)
			}
		})
	}

	// A lookup relays the first worker in ring order that answers with
	// the result; any other answer moves on to the next worker, and only
	// a transport error counts against the breaker.
	lookups := []struct {
		reply    reply
		source   string // which worker's result was relayed
		fails    int
		observed bool
	}{
		{replyOK, "first", 0, false},
		{replyTransport, "second", 1, true},
		{reply429, "second", 0, false},
		{reply5xx, "second", 0, false},
		{reply4xx, "second", 0, false},
		{replyBadBody, "second", 0, false},
	}
	const digest = "0123456789abcdef"
	for _, tc := range lookups {
		t.Run("lookup/"+string(tc.reply), func(t *testing.T) {
			var first atomic.Value // URL of the digest's ring owner
			var servers [2]*httptest.Server
			for i := range servers {
				servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.Method != http.MethodGet || r.URL.Path != "/v1/runs" {
						http.NotFound(w, r)
						return
					}
					self := "http://" + r.Host
					if self == first.Load() {
						tc.reply.write(w, http.StatusOK, `{"digest":"`+digest+`","source":"first","result":{}}`)
						return
					}
					writeRaw(w, http.StatusOK, `{"digest":"`+digest+`","source":"second","result":{}}`)
				}))
				defer servers[i].Close()
			}
			c, coord := newCoord(t, []string{servers[0].URL, servers[1].URL}, nil)
			order := c.ringOrder(digest)
			first.Store(order[0])
			code, body := call(t, http.MethodGet, coord.URL+"/v1/runs?digest="+digest)
			if code != http.StatusOK || !strings.Contains(body, `"source":"`+tc.source+`"`) {
				t.Errorf("lookup answered %d %s, want the %s worker's result", code, body, tc.source)
			}
			fails, observed := breakerOf(c, order[0])
			if fails != tc.fails || observed != tc.observed {
				t.Errorf("ring owner's breaker: fails=%d observed=%v, want fails=%d observed=%v",
					fails, observed, tc.fails, tc.observed)
			}
		})
	}
}
