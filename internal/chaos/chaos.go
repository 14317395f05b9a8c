// Package chaos injects deterministic network faults into HTTP
// traffic. It is the platform-layer fault philosophy of internal/fault
// applied one level up: where the Disruptor perturbs counters and
// migrations inside one simulation, chaos perturbs the network between
// cluster nodes — injected latency, connection resets, 5xx bursts,
// slow and truncated response bodies, flapping windows — so the
// cluster tier's retry, breaker and exactly-once machinery can be
// soaked under hostile-but-reproducible conditions.
//
// Determinism is the contract: every fault decision is a pure function
// of (seed, request index). Two proxies with the same Config issue the
// same fault schedule, byte for byte, regardless of timing or
// concurrency — request arrival order assigns indices, and everything
// downstream of the index is fixed. Decide gives any index's verdict,
// so tests compare schedules directly.
//
// Use NewTransport to wrap an http.RoundTripper (a coordinator's
// client in a Go test), or NewProxy / cmd/dikechaos to stand a
// fault-injecting reverse proxy in front of a live worker.
package chaos

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Class names one fault class.
type Class string

const (
	// ClassLatency delays the request by a deterministic duration drawn
	// in (0, MaxLatency] before forwarding it.
	ClassLatency Class = "latency"
	// ClassReset fails the request with a synthetic connection reset;
	// nothing reaches the target.
	ClassReset Class = "reset"
	// ClassError5xx answers 503 without forwarding; a draw that lands
	// this class starts a burst of BurstLen consecutive 503s, the shape
	// a crashing-and-restarting worker produces.
	ClassError5xx Class = "5xx"
	// ClassSlowBody forwards the request but drips the response body out
	// in small, delayed chunks.
	ClassSlowBody Class = "slowbody"
	// ClassTruncate forwards the request but cuts the response body off
	// partway and fails the read.
	ClassTruncate Class = "truncate"
	// ClassFlap is index-windowed total failure: of every FlapEvery
	// requests, the first FlapDown are reset — a worker that is
	// periodically unreachable. Independent of Rate.
	ClassFlap Class = "flap"
)

// randomClasses are the classes selected by the Rate draw (flap is
// window-scheduled instead).
var randomClasses = []Class{ClassLatency, ClassReset, ClassError5xx, ClassSlowBody, ClassTruncate}

// AllClasses lists every class, for -faults all.
var AllClasses = []Class{ClassLatency, ClassReset, ClassError5xx, ClassSlowBody, ClassTruncate, ClassFlap}

// ParseClasses parses a comma list of class names, or "all".
func ParseClasses(s string) ([]Class, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return nil, nil
	}
	if s == "all" {
		return append([]Class(nil), AllClasses...), nil
	}
	known := make(map[Class]bool, len(AllClasses))
	for _, c := range AllClasses {
		known[c] = true
	}
	var out []Class
	for _, part := range strings.Split(s, ",") {
		c := Class(strings.TrimSpace(part))
		if !known[c] {
			return nil, fmt.Errorf("chaos: unknown fault class %q (have %v)", c, AllClasses)
		}
		out = append(out, c)
	}
	return out, nil
}

// Config parameterises a fault schedule.
type Config struct {
	// Seed fixes the schedule; same seed, same Config ⇒ same schedule.
	Seed uint64
	// Rate is the per-request probability of drawing a random fault
	// (latency/reset/5xx/slowbody/truncate), in [0, 1].
	Rate float64
	// Classes enables fault classes; empty injects nothing.
	Classes []Class
	// MaxLatency bounds injected latency and paces slow bodies.
	// Default 250ms.
	MaxLatency time.Duration
	// BurstLen is how many consecutive requests a 5xx draw poisons.
	// Zero means 3.
	BurstLen int
	// FlapEvery/FlapDown shape the flap window: of every FlapEvery
	// requests, the first FlapDown are reset. A zero FlapEvery means
	// 50. A negative FlapDown means 10, and zero turns flapping off.
	FlapEvery, FlapDown int
}

// Validate reports the first field a schedule cannot be drawn from: a
// Rate that is NaN or outside [0, 1] (NaN would fault every request),
// or a negative BurstLen or FlapEvery.
func (c Config) Validate() error {
	switch {
	case !(c.Rate >= 0 && c.Rate <= 1):
		return fmt.Errorf("chaos: rate must be in [0, 1], got %v", c.Rate)
	case c.BurstLen < 0:
		return fmt.Errorf("chaos: burst length must not be negative, got %d", c.BurstLen)
	case c.FlapEvery < 0:
		return fmt.Errorf("chaos: flap window must not be negative, got %d", c.FlapEvery)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.MaxLatency <= 0 {
		c.MaxLatency = 250 * time.Millisecond
	}
	if c.BurstLen < 1 {
		c.BurstLen = 3
	}
	if c.FlapEvery < 1 {
		c.FlapEvery = 50
	}
	if c.FlapDown < 0 {
		c.FlapDown = 10
	}
	return c
}

func (c Config) has(class Class) bool {
	for _, e := range c.Classes {
		if e == class {
			return true
		}
	}
	return false
}

// Decision is the fault verdict for one request index.
type Decision struct {
	Index uint64 `json:"index"`
	// Fault is the injected class; empty passes the request through.
	Fault Class `json:"fault,omitempty"`
	// LatencyNs is the injected delay for latency decisions.
	LatencyNs int64 `json:"latency_ns,omitempty"`
}

// splitmix64 is the per-index PRNG: a tiny, well-mixed pure function,
// so Decide(i) needs no sequential state and is trivially
// concurrency-independent.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns a uniform [0,1) float for (seed, index, stream).
func (c Config) draw(i uint64, stream uint64) float64 {
	h := splitmix64(c.Seed ^ splitmix64(i*2654435761+stream))
	return float64(h>>11) / float64(1<<53)
}

// rawDraw returns the class a bare Rate draw lands on index i, or "".
// Burst expansion happens in Decide.
func (c Config) rawDraw(i uint64) Class {
	if c.Rate <= 0 || c.draw(i, 1) >= c.Rate {
		return ""
	}
	var enabled []Class
	for _, cl := range randomClasses {
		if c.has(cl) {
			enabled = append(enabled, cl)
		}
	}
	if len(enabled) == 0 {
		return ""
	}
	return enabled[int(c.draw(i, 2)*float64(len(enabled)))]
}

// Decide returns the fault verdict for request index i — a pure
// function of (Config, i), which is the whole determinism argument.
func (c Config) Decide(i uint64) Decision {
	c = c.withDefaults()
	d := Decision{Index: i}
	// Flap windows override everything: a flapping worker drops whole
	// spans of requests, it doesn't sprinkle.
	if c.has(ClassFlap) && c.FlapDown > 0 && int(i%uint64(c.FlapEvery)) < c.FlapDown {
		d.Fault = ClassFlap
		return d
	}
	// Burst membership: a 5xx draw at index j poisons j..j+BurstLen-1.
	for back := 0; back < c.BurstLen; back++ {
		j := i - uint64(back)
		if j > i { // wrapped below zero
			break
		}
		if c.rawDraw(j) == ClassError5xx {
			d.Fault = ClassError5xx
			return d
		}
	}
	switch cl := c.rawDraw(i); cl {
	case "", ClassError5xx: // 5xx handled by the burst scan above
		return d
	case ClassLatency:
		d.Fault = ClassLatency
		d.LatencyNs = int64(c.draw(i, 3)*float64(c.MaxLatency-1)) + 1
	default:
		d.Fault = cl
	}
	return d
}

// Transport is a fault-injecting http.RoundTripper. Request indices are
// assigned in arrival order; everything after the index is
// deterministic in the Config.
type Transport struct {
	cfg  Config
	base http.RoundTripper
	next atomic.Uint64

	mu     sync.Mutex
	counts map[Class]uint64
	passed uint64
}

// NewTransport wraps base (nil for http.DefaultTransport) with fault
// injection.
func NewTransport(base http.RoundTripper, cfg Config) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{cfg: cfg.withDefaults(), base: base, counts: make(map[Class]uint64)}
}

// Counts snapshots injected-fault counters by class, plus the
// pass-through count under "pass".
func (t *Transport) Counts() map[Class]uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[Class]uint64, len(t.counts)+1)
	for k, v := range t.counts {
		out[k] = v
	}
	out["pass"] = t.passed
	return out
}

// Summary renders the counters as a stable one-line report.
func (t *Transport) Summary() string {
	counts := t.Counts()
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, counts[Class(k)]))
	}
	return strings.Join(parts, " ")
}

func (t *Transport) record(class Class) {
	t.mu.Lock()
	if class == "" {
		t.passed++
	} else {
		t.counts[class]++
	}
	t.mu.Unlock()
}

// RoundTrip applies the schedule's decision for this request's index.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	i := t.next.Add(1) - 1
	d := t.cfg.Decide(i)
	t.record(d.Fault)
	switch d.Fault {
	case ClassReset, ClassFlap:
		return nil, fmt.Errorf("chaos: injected connection reset (%s, request %d)", d.Fault, i)
	case ClassError5xx:
		body := fmt.Sprintf("chaos: injected 503 (request %d)\n", i)
		return &http.Response{
			Status:        "503 Service Unavailable",
			StatusCode:    http.StatusServiceUnavailable,
			Proto:         req.Proto,
			ProtoMajor:    req.ProtoMajor,
			ProtoMinor:    req.ProtoMinor,
			Header:        http.Header{"Content-Type": []string{"text/plain"}, "X-Chaos": []string{"5xx"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	case ClassLatency:
		delay := time.Duration(d.LatencyNs)
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		return t.base.RoundTrip(req)
	case ClassSlowBody:
		resp, err := t.base.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		resp.Body = &slowBody{rc: resp.Body, pause: t.cfg.MaxLatency / 8, chunk: 256}
		return resp, nil
	case ClassTruncate:
		resp, err := t.base.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		// Cut the body off partway: deliver up to half the declared
		// length (or 128 bytes when unknown), then fail the read the way
		// a dropped connection does.
		limit := int64(128)
		if resp.ContentLength > 1 {
			limit = resp.ContentLength / 2
		}
		resp.Body = &truncatedBody{rc: resp.Body, remaining: limit}
		return resp, nil
	default:
		return t.base.RoundTrip(req)
	}
}

// slowBody drips reads out chunk bytes at a time with a pause between
// chunks.
type slowBody struct {
	rc    io.ReadCloser
	pause time.Duration
	chunk int
	first bool
}

func (s *slowBody) Read(p []byte) (int, error) {
	if s.first {
		time.Sleep(s.pause)
	}
	s.first = true
	if len(p) > s.chunk {
		p = p[:s.chunk]
	}
	return s.rc.Read(p)
}

func (s *slowBody) Close() error { return s.rc.Close() }

// truncatedBody serves `remaining` bytes then fails the read.
type truncatedBody struct {
	rc        io.ReadCloser
	remaining int64
}

func (t *truncatedBody) Read(p []byte) (int, error) {
	if t.remaining <= 0 {
		return 0, fmt.Errorf("chaos: injected body truncation: %w", io.ErrUnexpectedEOF)
	}
	if int64(len(p)) > t.remaining {
		p = p[:t.remaining]
	}
	n, err := t.rc.Read(p)
	t.remaining -= int64(n)
	if err == io.EOF {
		// The upstream body really ended inside our budget: the
		// truncation missed, pass the EOF through.
		return n, err
	}
	if t.remaining <= 0 && err == nil {
		err = fmt.Errorf("chaos: injected body truncation: %w", io.ErrUnexpectedEOF)
	}
	return n, err
}

func (t *truncatedBody) Close() error { return t.rc.Close() }

// Proxy is a fault-injecting reverse proxy in front of one target: the
// standalone shape of Transport, used by cmd/dikechaos and by tests
// that want the faults on the wire rather than in a client.
type Proxy struct {
	transport *Transport
	rp        *httputil.ReverseProxy
}

// NewProxy builds a reverse proxy for target (a base URL) injecting
// cfg's fault schedule. A cfg that fails Validate is an error.
func NewProxy(target string, cfg Config) (*Proxy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	u, err := url.Parse(strings.TrimRight(target, "/"))
	if err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
		return nil, fmt.Errorf("chaos: proxy target must be absolute http(s), got %q", target)
	}
	t := NewTransport(nil, cfg)
	rp := &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) {
			pr.SetURL(u)
			pr.Out.Host = u.Host
		},
		Transport: t,
		// Flush streamed responses (NDJSON events) promptly.
		FlushInterval: -1,
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			// Injected resets (and real upstream failures) surface as 502,
			// which the coordinator treats exactly like an unreachable
			// worker.
			w.Header().Set("X-Chaos", "reset")
			http.Error(w, "chaos proxy: "+err.Error(), http.StatusBadGateway)
		},
	}
	return &Proxy{transport: t, rp: rp}, nil
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) { p.rp.ServeHTTP(w, r) }

// Summary renders the proxy's counters as a one-line report.
func (p *Proxy) Summary() string { return p.transport.Summary() }
