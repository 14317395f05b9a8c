//go:build trace

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// traceWorkload is the traced invocation. It runs three passes over the
// workload, each after one set-up: untraced (the reference for
// trace_overhead and the GC numbers), traced (spans), and a short
// allocation pass. Every output of every pass goes through the same
// checker, so a traced run that computes anything else fails.
func traceWorkload(ctx context.Context, wl workload, e *env, cfg config) (gated, report []metric, err error) {
	cfg.setups, cfg.calibrate = 1, false
	base, err := measure(ctx, wl, e, cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := base.d.close(); err != nil {
		return nil, nil, err
	}

	t := newTracer(false)
	e.layers = t
	traced, err := measure(ctx, wl, e, cfg)
	if err != nil {
		return nil, nil, err
	}
	extra, err := extras(ctx, wl, e, traced)
	if cerr := traced.d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}

	a := newTracer(true)
	e.layers = a
	if err := allocPass(ctx, wl, e); err != nil {
		return nil, nil, err
	}
	e.layers = plain{}

	x := newSpanIndex(t.spans)
	all := append(layerMetrics(x, a), extra...)
	baseRate := float64(base.ops) / base.elapsed.Seconds()
	tracedRate := float64(traced.ops) / traced.elapsed.Seconds()
	all = append(all,
		metric{"go.gc.cpu_frac", "ratio", base.gc.cpuFrac(), base.ops},
		metric{"go.gc.cycles_per_op", "count", float64(base.gc.cycles) / float64(base.ops), base.ops},
		metric{"trace_overhead", "ratio", baseRate/tracedRate - 1, traced.ops},
	)
	if err := writeTrace(filepath.Join(cfg.traceDir, wl.name), wl.name, cfg, x.firstOps(spanFileOps), all); err != nil {
		return nil, nil, err
	}
	byName := map[string]metric{}
	for _, m := range all {
		byName[m.name] = m
	}
	for _, p := range perLayer {
		m, ok := byName[p.name]
		if !ok || m.unit != p.unit {
			return nil, nil, fmt.Errorf("trace: layer metric %s missing or not in %s", p.name, p.unit)
		}
		gated = append(gated, m)
	}
	return gated, all, nil
}

// extras are the per-workload numbers the spans do not carry, taken
// after the traced window.
func extras(ctx context.Context, wl workload, e *env, traced *measured) ([]metric, error) {
	if d, ok := traced.d.(*serveRunner); ok {
		return serveExtras(d)
	}
	if wl.name != "replay" {
		return nil, nil
	}
	// Record the run twice and run it twice unrecorded, alternating, and
	// compare the faster of each; the recorder must not change the run's
	// output.
	in := replayInput()
	spec, err := in.spec()
	if err != nil {
		return nil, err
	}
	var log []byte
	recorded, unrecorded := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		if log, err = record(ctx, e, in); err != nil {
			return nil, err
		}
		recorded = min(recorded, time.Since(t0))
		t0 = time.Now()
		out, err := e.layers.run(ctx, spec)
		if err != nil {
			return nil, err
		}
		unrecorded = min(unrecorded, time.Since(t0))
		got, err := outputDigest(out)
		if err != nil {
			return nil, err
		}
		if err := e.check.check(in.label, got); err != nil {
			return nil, err
		}
	}
	return []metric{
		{"replay.log_bytes", "B", float64(len(log)), 1},
		{"replay.record_overhead", "ratio", recorded.Seconds()/unrecorded.Seconds() - 1, 2},
	}, nil
}

// serveExtras reads the service's and the store's own counters, then
// times public store calls: Get on every cold digest and Put of probe
// records.
func serveExtras(d *serveRunner) ([]metric, error) {
	hits, misses, _, _ := d.srv.CacheStats()
	st := d.st.Stats()
	out := []metric{
		{"serve.cache.hit_ratio", "ratio", div(float64(hits), float64(hits+misses)), int(hits + misses)},
		{"store.hits", "count", float64(st.Hits), 0},
		{"store.appends", "count", float64(st.Appends), 0},
	}
	const rounds = 4
	var payload []byte
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, p := range d.cold {
			v, ok := d.st.Get(p.digest)
			if !ok {
				return nil, fmt.Errorf("store: cold spec %s missing", p.label)
			}
			payload = v
		}
	}
	gets := rounds * len(d.cold)
	out = append(out, metric{"store.get.us_per_call", "us", float64(time.Since(t0).Microseconds()) / float64(gets), gets})
	const puts = 64
	t0 = time.Now()
	for i := 0; i < puts; i++ {
		if err := d.st.Put(fmt.Sprintf("dikeperf-probe-%d", i), nil, payload); err != nil {
			return nil, err
		}
	}
	out = append(out, metric{"store.append.us_per_call", "us", float64(time.Since(t0).Microseconds()) / puts, puts})
	return out, nil
}

// allocPass runs a short, fixed amount of each workload with allocation
// counting around every wrapped call: one set-up and one pass over its
// inputs.
func allocPass(ctx context.Context, wl workload, e *env) error {
	if wl.name == "serve-mix" {
		// The service's goroutines allocate while its worker simulates,
		// so the simulations a miss runs are counted outside it: the
		// first fresh spec of each policy.
		for i := range servePolicies {
			spec, err := serveInput(e.seed, familyFresh, i).spec()
			if err != nil {
				return err
			}
			if _, err := e.layers.run(ctx, spec); err != nil {
				return err
			}
		}
		return nil
	}
	d, err := wl.start(ctx, e)
	if err != nil {
		return err
	}
	w := newWindow(e, 0, d.cycle(), 1)
	d.window(ctx, w)
	if err := errors.Join(w.firstEr, d.close()); err != nil || wl.name != "replay" {
		return err
	}
	// The replay set-up records; one unrecorded run counts the machine.
	spec, err := replayInput().spec()
	if err != nil {
		return err
	}
	_, err = e.layers.run(ctx, spec)
	return err
}

// layerStat sums one span name: calls, time inside the calls, and that
// time less the time inside child spans.
type layerStat struct {
	n          int
	busy, self float64 // ns
}

// spanIndex answers the questions the layer metrics ask of the spans.
type spanIndex struct {
	byID  map[int64]*span
	child map[int64]int64 // busy time of a span's children
	root  map[int64]*span // each operation's root span
}

func newSpanIndex(spans []span) *spanIndex {
	x := &spanIndex{byID: map[int64]*span{}, child: map[int64]int64{}, root: map[int64]*span{}}
	for i := range spans {
		sp := &spans[i]
		x.byID[sp.ID] = sp
		x.child[sp.Parent] += sp.Busy
		if sp.Parent == 0 && sp.Op != 0 {
			x.root[sp.Op] = sp
		}
	}
	return x
}

// under reports whether sp is, or descends from, a span named name.
func (x *spanIndex) under(sp *span, name string) bool {
	for ; sp != nil; sp = x.byID[sp.Parent] {
		if sp.Name == name {
			return true
		}
	}
	return false
}

// spanFileOps is how many timed operations spans.jsonl holds; the layer
// numbers use every span. A traced replay window makes over half a
// million spans.
const spanFileOps = 16

// firstOps returns the spans outside timed operations and those of the
// first n timed operations.
func (x *spanIndex) firstOps(n int) []span {
	var ops []int64
	for op, r := range x.root {
		if x.inOp(r) {
			ops = append(ops, op)
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	keep := map[int64]bool{}
	for _, op := range ops[:min(n, len(ops))] {
		keep[op] = true
	}
	var out []span
	for _, sp := range x.byID {
		if keep[sp.Op] || !x.inOp(sp) {
			out = append(out, *sp)
		}
	}
	return out
}

// inOp reports whether sp belongs to a timed operation (not a set-up).
func (x *spanIndex) inOp(sp *span) bool {
	r := x.root[sp.Op]
	return r != nil && (r.Name == "op" || strings.HasPrefix(r.Name, "op/"))
}

func (x *spanIndex) stats(keep func(*span) bool) map[string]*layerStat {
	out := map[string]*layerStat{}
	for _, sp := range x.byID {
		if !keep(sp) {
			continue
		}
		st := out[sp.Name]
		if st == nil {
			st = &layerStat{}
			out[sp.Name] = st
		}
		st.n += sp.N
		st.busy += float64(sp.Busy)
		st.self += float64(sp.Busy - x.child[sp.ID])
	}
	return out
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the layer numbers from the traced pass's spans
// and the allocation pass's counts.
func layerMetrics(x *spanIndex, a *tracer) []metric {
	all := x.stats(func(*span) bool { return true })
	inRun := x.stats(func(sp *span) bool { return x.under(sp, "run") })
	inOp := x.stats(x.inOp)
	get := func(m map[string]*layerStat, name string) layerStat {
		if st := m[name]; st != nil {
			return *st
		}
		return layerStat{}
	}
	runs := float64(get(all, "run").n)
	replays := float64(get(all, "replay.run").n)
	step := get(inRun, "machine.step")
	var opBusy float64
	for _, r := range x.root {
		if x.inOp(r) {
			opBusy += float64(r.Busy)
		}
	}
	prefixed := func(prefix string) (busy float64) {
		for name, st := range all {
			if strings.HasPrefix(name, prefix) {
				busy += st.busy
			}
		}
		return busy
	}
	perCall := func(name string, scale float64) float64 {
		st := get(all, name)
		return div(st.busy/scale, float64(st.n))
	}
	selfPerCall := func(name string) float64 {
		st := get(all, name)
		return div(st.self/1e3, float64(st.n))
	}
	allocs := func(name string, bytes bool) float64 {
		c := a.counts[name]
		if c == nil {
			return 0
		}
		if bytes {
			return div(float64(c.bytes), float64(c.calls))
		}
		return div(float64(c.mallocs), float64(c.calls))
	}

	out := []metric{
		{"sim.runs", "count", runs, 0},
		{"sim.ticks_per_run", "count", div(float64(step.n), runs), int(runs)},
		{"sim.quanta_per_run", "count", div(float64(get(inRun, "core.quantum").n+get(inRun, "sched.quantum").n), runs), int(runs)},
		{"sim.engine.self_us_per_run", "us", div(get(inRun, "sim.engine").self/1e3, runs), int(runs)},
		{"machine.build_ms_per_run", "ms", div(get(inRun, "machine.build").busy/1e6, runs), int(runs)},
		{"machine.step.ns_per_tick", "ns", div(step.busy, float64(step.n)), step.n},
		{"machine.step.share", "ratio", div(step.busy, get(all, "run").busy), int(runs)},
		{"machine.step.allocs_per_tick", "count", allocs("machine.step", false), 0},
		{"machine.step.bytes_per_tick", "B", allocs("machine.step", true), 0},
		{"machine.sample.us_per_call", "us", perCall("machine.sample", 1e3), get(all, "machine.sample").n},
		{"machine.sample.allocs_per_call", "count", allocs("machine.sample", false), 0},
		{"machine.affinity.calls_per_run", "count", div(float64(get(all, "machine.affinity").n), runs), int(runs)},
		{"machine.read.calls_per_run", "count", div(float64(get(all, "machine.read").n), runs), int(runs)},
		{"metrics.collect_us_per_run", "us", perCall("metrics.collect", 1e3), get(all, "metrics.collect").n},
		{"core.quantum.us_per_call", "us", selfPerCall("core.quantum"), get(all, "core.quantum").n},
		{"core.quantum.allocs_per_call", "count", allocs("core.quantum", false), 0},
		{"core.quantum.share", "ratio", div(get(inOp, "core.quantum").self, opBusy), len(x.root)},
		{"sched.quantum.us_per_call", "us", selfPerCall("sched.quantum"), get(all, "sched.quantum").n},
		{"sched.quantum.allocs_per_call", "count", allocs("sched.quantum", false), 0},
		{"power.govern.us_per_call", "us", selfPerCall("power.govern"), get(all, "power.govern").n},
		{"power.govern.calls_per_run", "count", div(float64(get(all, "power.govern").n), runs+replays), int(runs + replays)},
		{"traffic.tick.ns_per_tick", "ns", perCall("traffic.tick", 1), get(all, "traffic.tick").n},
		{"traffic.tick.allocs_per_tick", "count", allocs("traffic.tick", false), 0},
		{"traffic.finalize_us_per_run", "us", perCall("traffic.finalize", 1e3), get(all, "traffic.finalize").n},
		{"replay.decode_ms_per_run", "ms", perCall("replay.decode", 1e6), get(all, "replay.decode").n},
		{"replay.decode.allocs_per_run", "count", allocs("replay.decode", false), 0},
		{"replay.platform.us_per_run", "us", div(prefixed("replay.platform.")/1e3, replays), int(replays)},
	}
	return append(out, serveLayers(x)...)
}

// serveLayers splits each serve-mix request into handler time (the
// wrapped Handler, summed over the request's calls) and transport (the
// client's latency less that), and reads the simulations and queue
// waits of the misses.
func serveLayers(x *spanIndex) []metric {
	handler := map[int64]int64{}
	firstHandlerEnd := map[int64]int64{}
	runStart := map[int64]int64{}
	var sims []time.Duration
	for _, sp := range x.byID {
		switch sp.Name {
		case "serve.handler":
			handler[sp.Op] += sp.Busy
			if e, ok := firstHandlerEnd[sp.Op]; !ok || sp.End < e {
				firstHandlerEnd[sp.Op] = sp.End
			}
		case "run":
			if r := x.root[sp.Op]; r != nil && r.Name == "op/miss" {
				sims = append(sims, time.Duration(sp.Busy))
				runStart[sp.Op] = sp.Start
			}
		}
	}
	byClass := map[string][]time.Duration{}
	var transport, queue []time.Duration
	for op, r := range x.root {
		if !strings.HasPrefix(r.Name, "op/") {
			continue
		}
		byClass[r.Name] = append(byClass[r.Name], time.Duration(handler[op]))
		transport = append(transport, time.Duration(r.Busy-handler[op]))
		if s, ok := runStart[op]; ok {
			queue = append(queue, time.Duration(s-firstHandlerEnd[op]))
		}
	}
	p := func(d []time.Duration, q float64, scale float64) float64 {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return float64(percentile(d, q)) / scale
	}
	return []metric{
		{"serve.handler.hit_us_p50", "us", p(byClass["op/hit"], 50, 1e3), len(byClass["op/hit"])},
		{"serve.handler.store_hit_us_p50", "us", p(byClass["op/store_hit"], 50, 1e3), len(byClass["op/store_hit"])},
		{"serve.transport.us_p50", "us", p(transport, 50, 1e3), len(transport)},
		{"serve.simulate_ms_p50", "ms", p(sims, 50, 1e6), len(sims)},
		{"serve.queue_ms_p95", "ms", p(queue, 95, 1e6), len(queue)},
	}
}

// writeTrace writes every span to dir/spans.jsonl, in start order, and
// every layer number to dir/layers.json.
func writeTrace(dir, workload string, cfg config, spans []span, all []metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return errors.Join(err, f.Close())
		}
	}
	if err := errors.Join(bw.Flush(), f.Close()); err != nil {
		return err
	}
	doc := struct {
		Workload string           `json:"workload"`
		Seed     uint64           `json:"seed"`
		Seconds  float64          `json:"seconds"`
		Metrics  map[string]value `json:"metrics"`
	}{workload, cfg.seed, cfg.seconds, map[string]value{}}
	for _, m := range all {
		doc.Metrics[m.name] = value{m.value, m.unit}
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(blob, '\n'), 0o644)
}
