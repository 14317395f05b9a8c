package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dike/internal/harness"
)

// layers is how a workload reaches the program under test. The plain
// implementation calls the harness and the service directly; the traced
// one (trace.go) rebuilds the same runs from the packages' constructors
// with a span at every layer boundary.
type layers interface {
	// run executes one simulation, as harness.Run.
	run(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error)
	// replay re-runs a recorded log, as harness.Replay, and returns the
	// replayed decision stream (harness.RunDigest).
	replay(ctx context.Context, log []byte) (string, error)
	// op runs one operation of the workload; name labels it in the trace.
	op(ctx context.Context, name string, fn opFunc) (class string, err error)
	// handler wraps the service's HTTP handler.
	handler(h http.Handler) http.Handler
	// request is called before a serve-mix request for the spec with this
	// digest is sent.
	request(ctx context.Context, r *http.Request, digest string)
}

// opFunc runs one operation and returns its class ("" when the workload
// has one class of operation).
type opFunc func(ctx context.Context) (class string, err error)

type plain struct{}

func (plain) run(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error) {
	return harness.Run(ctx, spec)
}

func (plain) replay(_ context.Context, log []byte) (string, error) {
	out, err := harness.Replay(bytes.NewReader(log))
	if err != nil {
		return "", err
	}
	return harness.RunDigest(out.Policy, out.History, out.MetaStats, out.Power), nil
}

func (plain) op(ctx context.Context, _ string, fn opFunc) (string, error) { return fn(ctx) }

func (plain) handler(h http.Handler) http.Handler { return h }

func (plain) request(context.Context, *http.Request, string) {}

// env is what a workload's set-up receives.
type env struct {
	seed   uint64
	layers layers
	check  *checker
	// attempted and failed count every operation of the invocation,
	// warm-ups included; firstErr is the first failure.
	attempted, failed atomic.Int64
	mu                sync.Mutex
	firstErr          error
	// cal, while measure runs, pauses operations for reference samples.
	cal *calibrator
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// start builds the inputs from the seed, runs the warm-up and returns
	// the runner of the timed window.
	start func(ctx context.Context, e *env) (runner, error)
}

// runner runs a workload's operations.
type runner interface {
	// window runs operations until w stops issuing them.
	window(ctx context.Context, w *window)
	// cycle is the number of operations in one pass over the workload's
	// inputs; a timed window ends on a pass boundary.
	cycle() int
	close() error
}

// window collects the operations of one measured stretch.
type window struct {
	e        *env
	deadline time.Time
	limit    int // operations to start; 0 starts them until the deadline
	align    int // a deadline-bound window stops only after a multiple of align

	mu      sync.Mutex
	started int
	lat     map[string][]time.Duration // successful operations by class
	failed  int
	firstEr error
}

func newWindow(e *env, seconds float64, limit, align int) *window {
	return &window{
		e:        e,
		deadline: time.Now().Add(time.Duration(seconds * float64(time.Second))),
		limit:    limit,
		align:    align,
		lat:      map[string][]time.Duration{},
	}
}

// next reports whether another operation may start, and counts it.
func (w *window) next() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.limit > 0 && w.started >= w.limit ||
		w.limit == 0 && w.started%w.align == 0 && !time.Now().Before(w.deadline) {
		return false
	}
	w.started++
	return true
}

// do runs fn as one operation of the window and records its latency.
func (w *window) do(ctx context.Context, name string, fn opFunc) {
	release := w.e.cal.hold()
	t0 := time.Now()
	class, err := w.e.layers.op(ctx, name, fn)
	d := time.Since(t0)
	release()
	w.e.attempted.Add(1)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.e.failed.Add(1)
		w.failed++
		if w.firstEr == nil {
			w.firstEr = err
		}
		w.e.mu.Lock()
		if w.e.firstErr == nil {
			w.e.firstErr = err
		}
		w.e.mu.Unlock()
		return
	}
	w.lat[class] = append(w.lat[class], d)
}

// all returns every successful latency, sorted.
func (w *window) all() []time.Duration {
	var out []time.Duration
	for _, l := range w.lat {
		out = append(out, l...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// serial drives operations one after another on one goroutine.
type serial struct {
	fn opFunc
	n  int // operations per pass over the inputs
}

func (s serial) window(ctx context.Context, w *window) {
	for w.next() {
		w.do(ctx, "op", s.fn)
	}
}

func (s serial) cycle() int { return s.n }

func (serial) close() error { return nil }

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	// setups is how many times the workload is set up; setup_s is their
	// median and the last one is measured.
	setups int
	// ops, when positive, bounds the timed window by operation count
	// instead of by seconds (the smoke tests).
	ops int
	// calibrate samples the reference kernel during set-ups and window.
	// Traced invocations do not: their GC numbers would count the
	// samples' collections.
	calibrate bool
	traceDir  string
}

// measured is what one pass over a workload yields. Durations and
// allocation exclude the calibrator's samples.
type measured struct {
	setups  []time.Duration
	w       *window
	elapsed time.Duration
	ops     int
	alloc   uint64 // bytes allocated during the window
	// retained is the live heap after GC at the window's end minus at
	// its start.
	retained int64
	gc       gcStats
	// ref is the median reference sample over set-ups and window, and
	// refN the number of samples.
	ref  time.Duration
	refN int
	d    runner
}

// measure sets the workload up cfg.setups times, then runs its timed
// window over the last set-up, sampling the reference kernel throughout
// if cfg.calibrate. The caller closes m.d.
func measure(ctx context.Context, wl workload, e *env, cfg config) (*measured, error) {
	m := &measured{}
	if cfg.calibrate {
		e.cal = startCalibrator()
	}
	defer func() {
		e.cal.halt()
		m.ref, m.refN = e.cal.ref()
		e.cal = nil
	}()
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		p0, _ := e.cal.paused()
		t0 := time.Now()
		d, err := wl.start(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		p1, _ := e.cal.paused()
		m.setups = append(m.setups, time.Since(t0)-(p1-p0))
		if i < cfg.setups-1 {
			if err := d.close(); err != nil {
				return nil, err
			}
			continue
		}
		m.d = d
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := readGC()
	p0, a0 := e.cal.paused()
	m.w = newWindow(e, cfg.seconds, cfg.ops, m.d.cycle())
	t0 := time.Now()
	m.d.window(ctx, m.w)
	m.elapsed = time.Since(t0)
	m.gc = readGC().since(gc0)
	runtime.ReadMemStats(&ms1)
	p1, a1 := e.cal.paused()
	m.elapsed -= p1 - p0
	m.alloc = ms1.TotalAlloc - ms0.TotalAlloc - (a1 - a0)
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	m.retained = int64(ms1.HeapAlloc) - int64(ms0.HeapAlloc)
	m.ops = m.w.started
	return m, nil
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	// n is the sample count behind the value (0 for derived values).
	n int
}

// endToEnd derives the end-to-end metrics of a pass, in BENCHMARK.json's
// order. Timings are calibrated (see calibrate.go).
func (m *measured) endToEnd() []metric {
	lat := m.w.all()
	setups := append([]time.Duration(nil), m.setups...)
	sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })
	slow := slowdown(m.ref)
	return []metric{
		{"ops_per_s", "1/s", float64(m.ops) / m.elapsed.Seconds() * slow, m.ops},
		{"op_p50_ms", "ms", ms(percentile(lat, 50)) / slow, len(lat)},
		{"alloc_mb_per_op", "MB", float64(m.alloc) / 1e6 / float64(m.ops), m.ops},
		{"setup_s", "s", percentile(setups, 50).Seconds() / slow, len(setups)},
	}
}

// details are report lines beyond the gated metrics, none calibrated:
// the reference sample, the gated timings before calibration, tail
// latency, latency per class of operation, and the heap retained per
// operation. Tails are not gated: on a shared machine they measure the
// neighbours more than the code.
func (m *measured) details() []metric {
	lat := m.w.all()
	setups := append([]time.Duration(nil), m.setups...)
	sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })
	out := []metric{
		{"ref_ms", "ms", ms(m.ref), m.refN},
		{"ops_per_s_raw", "1/s", float64(m.ops) / m.elapsed.Seconds(), m.ops},
		{"op_p50_ms_raw", "ms", ms(percentile(lat, 50)), len(lat)},
		{"setup_s_raw", "s", percentile(setups, 50).Seconds(), len(setups)},
		{"op_p95_ms", "ms", ms(percentile(lat, 95)), len(lat)},
		{"op_p99_ms", "ms", ms(percentile(lat, 99)), len(lat)},
	}
	classes := make([]string, 0, len(m.w.lat))
	for c := range m.w.lat {
		if c != "" {
			classes = append(classes, c)
		}
	}
	sort.Strings(classes)
	for _, c := range classes {
		l := append([]time.Duration(nil), m.w.lat[c]...)
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		for _, p := range []float64{50, 95, 99} {
			out = append(out, metric{fmt.Sprintf("%s_p%g_ms", c, p), "ms", ms(percentile(l, p)), len(l)})
		}
	}
	return append(out,
		metric{"retained_kb_per_op", "KB", float64(m.retained) / 1e3 / float64(m.ops), m.ops},
		metric{"error_rate", "ratio", float64(m.w.failed) / float64(max(m.ops, 1)), m.ops},
	)
}

// perLayer are the layer metrics a traced invocation prints, on every
// workload (BENCHMARK.json per_layer). Each is measured on all four
// workloads: replay's machine numbers come from its live runs, and
// serve-mix's from the simulations its misses run. layers.json carries
// these and the workload-specific layers besides.
var perLayer = []struct{ name, unit string }{
	{"sim.ticks_per_run", "count"},
	{"sim.quanta_per_run", "count"},
	{"sim.engine.self_us_per_run", "us"},
	{"machine.build_ms_per_run", "ms"},
	{"machine.step.ns_per_tick", "ns"},
	{"machine.step.share", "ratio"},
	{"machine.step.allocs_per_tick", "count"},
	{"machine.step.bytes_per_tick", "B"},
	{"machine.sample.us_per_call", "us"},
	{"machine.sample.allocs_per_call", "count"},
	{"machine.affinity.calls_per_run", "count"},
	{"core.quantum.us_per_call", "us"},
	{"core.quantum.allocs_per_call", "count"},
	{"core.quantum.share", "ratio"},
	{"go.gc.cpu_frac", "ratio"},
	{"go.gc.cycles_per_op", "count"},
	{"trace_overhead", "ratio"},
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// gcStats are the Go runtime's GC counters over a stretch of time.
type gcStats struct {
	cycles uint64
	// CPU seconds spent in GC, available in total, and idle.
	gcCPU, totalCPU, idlCPU float64
}

var gcSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readGC() gcStats {
	s := make([]metrics.Sample, len(gcSamples))
	for i, name := range gcSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return gcStats{
		cycles:   s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
		idlCPU:   s[3].Value.Float64(),
	}
}

func (g gcStats) since(o gcStats) gcStats {
	return gcStats{
		cycles:   g.cycles - o.cycles,
		gcCPU:    g.gcCPU - o.gcCPU,
		totalCPU: g.totalCPU - o.totalCPU,
		idlCPU:   g.idlCPU - o.idlCPU,
	}
}

// cpuFrac is the share of the CPU time the process used that went to GC.
func (g gcStats) cpuFrac() float64 {
	used := g.totalCPU - g.idlCPU
	if used <= 0 {
		return 0
	}
	return g.gcCPU / used
}
