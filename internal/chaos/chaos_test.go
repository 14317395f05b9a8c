package chaos

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func allOn(seed uint64, rate float64) Config {
	return Config{Seed: seed, Rate: rate, Classes: append([]Class(nil), AllClasses...)}
}

// plan materialises cfg's schedule for the first n request indices.
func plan(cfg Config, n int) []Decision {
	out := make([]Decision, n)
	for i := range out {
		out[i] = cfg.Decide(uint64(i))
	}
	return out
}

// TestPlanDeterminism is the contract: same seed ⇒ byte-identical
// schedule; different seed ⇒ a different one.
func TestPlanDeterminism(t *testing.T) {
	cfg := allOn(42, 0.3)
	a, err := json.Marshal(plan(cfg, 2000))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(plan(cfg, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different schedules")
	}
	other, err := json.Marshal(plan(allOn(43, 0.3), 2000))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, other) {
		t.Fatalf("different seeds produced identical schedules")
	}
}

// TestDecideIsOrderIndependent spot-checks that Decide(i) does not
// depend on evaluation order: decisions queried backwards match the
// forward plan.
func TestDecideIsOrderIndependent(t *testing.T) {
	cfg := allOn(7, 0.5)
	forward := plan(cfg, 500)
	for i := 499; i >= 0; i-- {
		if got := cfg.Decide(uint64(i)); got != forward[i] {
			t.Fatalf("index %d: forward %+v backward %+v", i, forward[i], got)
		}
	}
}

// TestRateZeroInjectsNothing: with flap disabled and rate 0 every
// request passes through.
func TestRateZeroInjectsNothing(t *testing.T) {
	cfg := Config{Seed: 1, Rate: 0, Classes: []Class{ClassLatency, ClassReset, ClassError5xx}}
	for _, d := range plan(cfg, 1000) {
		if d.Fault != "" {
			t.Fatalf("rate 0 injected %+v", d)
		}
	}
}

// TestRateLandsNearTarget: the draw is uniform enough that a 30% rate
// injects faults on roughly 30% of indices.
func TestRateLandsNearTarget(t *testing.T) {
	cfg := Config{Seed: 99, Rate: 0.3, Classes: []Class{ClassReset}}
	n, hits := 20000, 0
	for _, d := range plan(cfg, n) {
		if d.Fault != "" {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if got < 0.25 || got > 0.35 {
		t.Fatalf("rate 0.3 landed at %.3f", got)
	}
}

// TestBurstExpansion: every 5xx decision sits in a run of at least
// BurstLen consecutive 5xx decisions (bursts can overlap and extend).
func TestBurstExpansion(t *testing.T) {
	cfg := Config{Seed: 5, Rate: 0.05, Classes: []Class{ClassError5xx}, BurstLen: 3}
	ds := plan(cfg, 5000)
	for i := 0; i < len(ds)-3; i++ {
		// A burst start (raw draw lands 5xx) must poison the next
		// BurstLen-1 indices too.
		if cfg.withDefaults().rawDraw(uint64(i)) == ClassError5xx {
			for j := i; j < i+3; j++ {
				if ds[j].Fault != ClassError5xx {
					t.Fatalf("index %d draws 5xx but index %d decided %+v", i, j, ds[j])
				}
			}
		}
	}
}

// TestFlapWindows: flap resets exactly the first FlapDown of every
// FlapEvery indices, independent of Rate.
func TestFlapWindows(t *testing.T) {
	cfg := Config{Seed: 3, Rate: 0, Classes: []Class{ClassFlap}, FlapEvery: 10, FlapDown: 4}
	for i, d := range plan(cfg, 100) {
		want := i%10 < 4
		if (d.Fault == ClassFlap) != want {
			t.Fatalf("index %d: flap=%v want %v", i, d.Fault == ClassFlap, want)
		}
	}
}

// chaosServer is a plain upstream answering a fixed body.
func chaosServer(t *testing.T, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, client *http.Client, url string) (*http.Response, []byte, error) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, rerr := io.ReadAll(resp.Body)
	return resp, b, rerr
}

// TestTransportClasses drives one request per forced class and checks
// the observable behavior.
func TestTransportClasses(t *testing.T) {
	srv := chaosServer(t, strings.Repeat("x", 4096))

	force := func(class Class) *Transport {
		// Rate 1 with a single enabled class forces it on every index.
		return NewTransport(nil, Config{Seed: 1, Rate: 1, Classes: []Class{class}})
	}

	t.Run("reset", func(t *testing.T) {
		client := &http.Client{Transport: force(ClassReset)}
		if _, _, err := get(t, client, srv.URL); err == nil {
			t.Fatal("reset class did not fail the request")
		}
	})

	t.Run("5xx", func(t *testing.T) {
		client := &http.Client{Transport: force(ClassError5xx)}
		resp, _, err := get(t, client, srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("got %d want 503", resp.StatusCode)
		}
	})

	t.Run("latency", func(t *testing.T) {
		tr := NewTransport(nil, Config{Seed: 1, Rate: 1, Classes: []Class{ClassLatency}, MaxLatency: 50 * time.Millisecond})
		client := &http.Client{Transport: tr}
		start := time.Now()
		resp, body, err := get(t, client, srv.URL)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("latency class broke the request: %v %v", resp, err)
		}
		if len(body) != 4096 {
			t.Fatalf("latency class altered the body: %d bytes", len(body))
		}
		_ = start // delay is tiny and timing-flaky to assert; correctness is pass-through
	})

	t.Run("slowbody", func(t *testing.T) {
		tr := NewTransport(nil, Config{Seed: 1, Rate: 1, Classes: []Class{ClassSlowBody}, MaxLatency: 8 * time.Millisecond})
		client := &http.Client{Transport: tr}
		resp, body, err := get(t, client, srv.URL)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("slowbody broke the request: %v %v", resp, err)
		}
		if len(body) != 4096 {
			t.Fatalf("slowbody altered the body: %d bytes", len(body))
		}
	})

	t.Run("truncate", func(t *testing.T) {
		client := &http.Client{Transport: force(ClassTruncate)}
		_, body, err := get(t, client, srv.URL)
		if err == nil {
			t.Fatal("truncate class did not fail the body read")
		}
		if len(body) >= 4096 {
			t.Fatalf("truncate delivered the whole body (%d bytes)", len(body))
		}
	})

	t.Run("counts", func(t *testing.T) {
		tr := force(ClassReset)
		client := &http.Client{Transport: tr}
		for i := 0; i < 5; i++ {
			client.Get(srv.URL) //nolint:errcheck — failures are the point
		}
		if got := tr.Counts()[ClassReset]; got != 5 {
			t.Fatalf("reset count %d want 5", got)
		}
	})
}

// TestTransportConcurrentCounts exercises the index counter and
// counters under the race detector.
func TestTransportConcurrentCounts(t *testing.T) {
	srv := chaosServer(t, "ok")
	tr := NewTransport(nil, Config{Seed: 11, Rate: 0.5, Classes: []Class{ClassReset, ClassError5xx}})
	client := &http.Client{Transport: tr}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := client.Get(srv.URL)
				if err == nil {
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	counts := tr.Counts()
	var total uint64
	for _, v := range counts {
		total += v
	}
	if total != 200 {
		t.Fatalf("counter total %d want 200: %v", total, counts)
	}
}

// TestProxy: the proxy forwards clean requests, turns injected resets
// into 502, and validates its target.
func TestProxy(t *testing.T) {
	srv := chaosServer(t, "hello from upstream")

	t.Run("pass-through", func(t *testing.T) {
		p, err := NewProxy(srv.URL, Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(p)
		defer front.Close()
		resp, body, err := get(t, http.DefaultClient, front.URL)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("clean proxy broke the request: %v %v", resp, err)
		}
		if string(body) != "hello from upstream" {
			t.Fatalf("body %q", body)
		}
	})

	t.Run("reset-becomes-502", func(t *testing.T) {
		p, err := NewProxy(srv.URL, Config{Seed: 1, Rate: 1, Classes: []Class{ClassReset}})
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(p)
		defer front.Close()
		resp, _, err := get(t, http.DefaultClient, front.URL)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("got %d want 502", resp.StatusCode)
		}
		if p.transport.Counts()[ClassReset] != 1 {
			t.Fatalf("counts %v", p.transport.Counts())
		}
	})

	t.Run("bad-target", func(t *testing.T) {
		for _, target := range []string{"", "not-a-url", "ftp://x", "/relative"} {
			if _, err := NewProxy(target, Config{}); err == nil {
				t.Fatalf("target %q accepted", target)
			}
		}
	})

	t.Run("bad-config", func(t *testing.T) {
		if _, err := NewProxy(srv.URL, Config{Rate: math.NaN(), Classes: []Class{ClassReset}}); err == nil {
			t.Fatal("NaN rate accepted")
		}
	})
}

// TestConfigValidate: a rate outside [0, 1], NaN included, and a
// negative burst or flap window are rejected; the zero Config and the
// documented defaults pass.
func TestConfigValidate(t *testing.T) {
	for _, bad := range []Config{
		{Rate: math.NaN()}, {Rate: -0.1}, {Rate: 1.1}, {Rate: math.Inf(1)},
		{BurstLen: -1}, {FlapEvery: -1},
	} {
		if bad.Validate() == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
	for _, good := range []Config{{}, {Rate: 1}, {Rate: 0.5, BurstLen: 3, FlapEvery: 50, FlapDown: -1}} {
		if err := good.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", good, err)
		}
	}
}

// FuzzChaosDecide: for any class list, rate, seed and window shape,
// ParseClasses and Validate either reject the input or give a Config
// whose Decide is a pure function of the index that only ever names an
// enabled class.
func FuzzChaosDecide(f *testing.F) {
	f.Add("reset", math.NaN(), uint64(1), int8(0), int8(0), int8(0), uint64(0))
	f.Add("all", 0.3, uint64(42), int8(3), int8(50), int8(10), uint64(7))
	f.Add("flap", 0.0, uint64(7), int8(0), int8(5), int8(-1), uint64(49))
	f.Add("reset,5xx", 1.0, uint64(3), int8(2), int8(0), int8(0), uint64(1<<63))
	f.Fuzz(func(t *testing.T, classes string, rate float64, seed uint64, burst, flapEvery, flapDown int8, i uint64) {
		cs, err := ParseClasses(classes)
		if err != nil {
			return
		}
		cfg := Config{Seed: seed, Rate: rate, Classes: cs, BurstLen: int(burst), FlapEvery: int(flapEvery), FlapDown: int(flapDown)}
		if err := cfg.Validate(); err != nil {
			return
		}
		if math.IsNaN(rate) || rate < 0 || rate > 1 {
			t.Fatalf("rate %v passed Validate", rate)
		}
		maxLat := cfg.withDefaults().MaxLatency
		for j := i; j < i+8 && j >= i; j++ {
			d := cfg.Decide(j)
			if again := cfg.Decide(j); again != d {
				t.Fatalf("Decide(%d) = %+v, then %+v", j, d, again)
			}
			if d.Index != j {
				t.Fatalf("Decide(%d) has index %d", j, d.Index)
			}
			if d.Fault != "" && !cfg.has(d.Fault) {
				t.Fatalf("Decide(%d) = %+v names a class outside %v", j, d, cs)
			}
			if lat := time.Duration(d.LatencyNs); (d.Fault == ClassLatency) != (lat > 0) || lat > maxLat {
				t.Fatalf("Decide(%d) = %+v: latency outside (0, %v]", j, d, maxLat)
			}
		}
	})
}

// TestParseClasses covers the flag-parsing helper.
func TestParseClasses(t *testing.T) {
	if cs, err := ParseClasses("all"); err != nil || len(cs) != len(AllClasses) {
		t.Fatalf("all: %v %v", cs, err)
	}
	if cs, err := ParseClasses(""); err != nil || cs != nil {
		t.Fatalf("empty: %v %v", cs, err)
	}
	if cs, err := ParseClasses("reset, 5xx"); err != nil || len(cs) != 2 {
		t.Fatalf("list: %v %v", cs, err)
	}
	if _, err := ParseClasses("bogus"); err == nil {
		t.Fatal("bogus class accepted")
	}
}
