//go:build trace

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dike/internal/core"
	"dike/internal/harness"
	"dike/internal/machine"
	"dike/internal/metrics"
	"dike/internal/platform"
	"dike/internal/power"
	"dike/internal/replay"
	"dike/internal/sched"
	"dike/internal/sim"
	"dike/internal/traffic"
	dikeworkload "dike/internal/workload"
)

// tracer implements layers by rebuilding harness.Run and harness.Replay
// from the packages' constructors with a wrapper at every layer
// boundary: sim.World.Step, sim.Policy.Quantum, platform.Platform and
// the traffic OnTick observer. In the timing pass each wrapped call is a
// span; in the allocation pass (allocs set) it is bracketed by
// runtime.ReadMemStats instead, whose stop-the-world reads would distort
// span times.
type tracer struct {
	epoch  time.Time
	allocs bool

	ids atomic.Int64
	ops atomic.Int64
	// links maps a serve-mix spec digest to the request that submitted
	// it, so the simulation the service runs for it joins that request.
	links sync.Map

	mu     sync.Mutex
	spans  []span
	counts map[string]*allocCount
}

// span is one traced call. Calls the engine makes every tick (world
// steps, traffic ticks, platform calls) are folded: consecutive calls
// of one name under one parent become one span with N calls and Busy
// time, closed when a sibling span starts or the parent ends.
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n"`
	Busy   int64  `json:"busy_ns"`
}

// allocCount is one layer's self allocations in the allocation pass.
type allocCount struct {
	calls, mallocs, bytes uint64
}

func newTracer(allocs bool) *tracer {
	return &tracer{epoch: time.Now(), allocs: allocs, counts: map[string]*allocCount{}}
}

// link names the span a scope's outermost spans hang under.
type link struct{ op, parent int64 }

// scope is one goroutine's open spans within one operation.
type scope struct {
	t      *tracer
	link   link
	stack  []frame
	spans  []span
	counts map[string]*allocCount
	ms     runtime.MemStats
}

type frame struct {
	id    int64
	name  string
	fold  bool
	start time.Time
	folds []span

	mallocs0, bytes0         uint64
	childMallocs, childBytes uint64
}

type scopeKey struct{}

func (t *tracer) newScope(l link) *scope {
	return &scope{t: t, link: l, counts: map[string]*allocCount{}}
}

func (s *scope) begin(name string, fold bool) {
	var id int64
	if !fold && !s.t.allocs {
		s.flush()
		id = s.t.ids.Add(1)
	}
	if len(s.stack) < cap(s.stack) {
		s.stack = s.stack[:len(s.stack)+1]
	} else {
		s.stack = append(s.stack, frame{})
	}
	f := &s.stack[len(s.stack)-1]
	f.id, f.name, f.fold = id, name, fold
	f.folds = f.folds[:0]
	f.childMallocs, f.childBytes = 0, 0
	if s.t.allocs {
		runtime.ReadMemStats(&s.ms)
		f.mallocs0, f.bytes0 = s.ms.Mallocs, s.ms.TotalAlloc
		return
	}
	f.start = time.Now()
}

func (s *scope) end() {
	n := len(s.stack) - 1
	f := &s.stack[n]
	if s.t.allocs {
		runtime.ReadMemStats(&s.ms)
		dm, db := s.ms.Mallocs-f.mallocs0, s.ms.TotalAlloc-f.bytes0
		c := s.counts[f.name]
		if c == nil {
			c = &allocCount{}
			s.counts[f.name] = c
		}
		c.calls++
		c.mallocs += dm - f.childMallocs
		c.bytes += db - f.childBytes
		if n > 0 {
			s.stack[n-1].childMallocs += dm
			s.stack[n-1].childBytes += db
		}
		s.stack = s.stack[:n]
		return
	}
	now := time.Now()
	sp := span{Op: s.link.op, ID: f.id, Parent: s.link.parent, Name: f.name,
		Start: int64(f.start.Sub(s.t.epoch)), End: int64(now.Sub(s.t.epoch)), N: 1, Busy: int64(now.Sub(f.start))}
	if n > 0 {
		sp.Parent = s.stack[n-1].id
	}
	if f.fold && n > 0 {
		s.stack = s.stack[:n]
		p := &s.stack[n-1]
		for i := range p.folds {
			if fs := &p.folds[i]; fs.Name == sp.Name {
				fs.End, fs.N, fs.Busy = sp.End, fs.N+1, fs.Busy+sp.Busy
				return
			}
		}
		p.folds = append(p.folds, sp)
		return
	}
	if sp.ID == 0 {
		sp.ID = s.t.ids.Add(1)
	}
	s.flush()
	s.spans = append(s.spans, sp)
	s.stack = s.stack[:n]
}

// flush closes the folded spans under the innermost open frame.
func (s *scope) flush() {
	if len(s.stack) == 0 {
		return
	}
	f := &s.stack[len(s.stack)-1]
	for _, fs := range f.folds {
		fs.ID = s.t.ids.Add(1)
		s.spans = append(s.spans, fs)
	}
	f.folds = f.folds[:0]
}

// close hands the scope's spans and counts to the tracer.
func (s *scope) close() {
	for len(s.stack) > 0 {
		s.end()
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.spans = append(s.t.spans, s.spans...)
	for name, c := range s.counts {
		tc := s.t.counts[name]
		if tc == nil {
			tc = &allocCount{}
			s.t.counts[name] = tc
		}
		tc.calls += c.calls
		tc.mallocs += c.mallocs
		tc.bytes += c.bytes
	}
}

// op opens the operation's root span; every span the operation causes,
// on any goroutine, carries its op id.
func (t *tracer) op(ctx context.Context, name string, fn opFunc) (string, error) {
	s := t.newScope(link{op: t.ops.Add(1)})
	s.begin(name, false)
	class, err := fn(context.WithValue(ctx, scopeKey{}, s))
	if class != "" {
		s.stack[0].name = name + "/" + class
	}
	s.close()
	return class, err
}

// scopeFor returns the scope a traced run or replay belongs to: the
// caller's, when ctx carries one, else a new scope joined to the serve
// request that submitted the spec (own reports that the caller must
// close it).
func (t *tracer) scopeFor(ctx context.Context, spec *harness.RunSpec) (s *scope, own bool) {
	if s, ok := ctx.Value(scopeKey{}).(*scope); ok {
		return s, false
	}
	var l link
	if spec != nil {
		if d, err := spec.Digest(); err == nil {
			if v, ok := t.links.LoadAndDelete(d); ok {
				l = v.(link)
			}
		}
	}
	return t.newScope(l), true
}

// spanHeader carries "op/parent" from a serve-mix client to the server.
const spanHeader = "X-Dikeperf-Span"

func (t *tracer) request(ctx context.Context, r *http.Request, digest string) {
	s, ok := ctx.Value(scopeKey{}).(*scope)
	if !ok || len(s.stack) == 0 {
		return
	}
	l := link{op: s.link.op, parent: s.stack[0].id}
	r.Header.Set(spanHeader, fmt.Sprintf("%d/%d", l.op, l.parent))
	t.links.Store(digest, l)
}

func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var l link
		if op, parent, ok := strings.Cut(r.Header.Get(spanHeader), "/"); ok {
			l.op, _ = strconv.ParseInt(op, 10, 64)
			l.parent, _ = strconv.ParseInt(parent, 10, 64)
		}
		s := t.newScope(l)
		s.begin("serve.handler", false)
		h.ServeHTTP(w, r)
		s.close()
	})
}

func (t *tracer) run(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error) {
	s, own := t.scopeFor(ctx, &spec)
	if own {
		defer s.close()
	}
	s.begin("run", false)
	defer s.end()
	return s.simulate(ctx, spec)
}

func (t *tracer) replay(ctx context.Context, log []byte) (string, error) {
	s, own := t.scopeFor(ctx, nil)
	if own {
		defer s.close()
	}
	return s.replay(log)
}

// simulate is harness.Run rebuilt with wrappers, for the specs the
// workloads submit: closed-loop or traffic runs, any machine, the fixed
// policies and Dike variants, an optional governor and recorder.
func (s *scope) simulate(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Faults != nil || spec.Meta != nil || spec.TraceEvery > 0 {
		return nil, fmt.Errorf("trace: %s run uses faults, meta or a run trace, which the traced wiring does not copy", spec.Policy)
	}
	mcfg := machine.DefaultConfig()
	if spec.MachineConfig != nil {
		mcfg = *spec.MachineConfig
	}
	s.begin("machine.build", false)
	m, inst, tr, err := build(mcfg, spec)
	s.end()
	if err != nil {
		return nil, err
	}

	var inner platform.Platform = m
	var rec *replay.Recorder
	prefix := "machine"
	if spec.Record != nil {
		rec = replay.NewRecorder(m, spec.Record)
		inner, prefix = rec, "replay.record"
	}
	plat := s.platform(prefix, inner)
	policy, dk, meta, err := s.policy(spec.Policy, spec.Seed, liveDikeConfig(spec), plat)
	if err != nil {
		return nil, err
	}
	var gp *sched.Governed
	if spec.Power != nil && spec.Power.Governor != "" {
		pcfg := spec.Power.WithDefaults()
		gov, err := power.New(pcfg)
		if err != nil {
			return nil, err
		}
		levels := m.KindDVFSLevels()
		gov.Bind(m.Topology(), levels)
		gp = sched.Govern(policy, gov, plat, pcfg.AdaptEvery)
		policy = &tPolicy{s: s, p: gp, name: "power.govern"}
		if meta.Power, err = json.Marshal(power.Setup{Config: pcfg, Levels: levels}); err != nil {
			return nil, err
		}
	}
	if rec != nil {
		if err := rec.Start(meta); err != nil {
			return nil, err
		}
		policy = rec.WrapPolicy(policy)
	}

	ecfg := sim.DefaultConfig()
	if spec.Step > 0 {
		ecfg.Step = spec.Step
	}
	if spec.MaxTime > 0 {
		ecfg.MaxTime = spec.MaxTime
	} else if tr != nil {
		if h := sim.Time(spec.Traffic.HorizonMs) * 10; h > ecfg.MaxTime {
			ecfg.MaxTime = h
		}
	}
	engine, err := sim.NewEngine(tWorld{s: s, m: m}, policy, ecfg)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		engine.OnTick(func(now sim.Time) {
			s.begin("traffic.tick", true)
			tr.Tick(now)
			s.end()
		})
	}
	if spec.OnProgress != nil {
		quantum := 0
		engine.OnQuantum(func(now sim.Time) {
			quantum++
			spec.OnProgress(harness.Progress{Time: now, Quantum: quantum, Alive: len(m.Alive()), Swaps: m.SwapCount(), Utilization: m.Utilization()})
		})
	}
	s.begin("sim.engine", false)
	done, err := engine.Run(ctx)
	s.end()
	if err != nil {
		return nil, fmt.Errorf("trace: %s run: %w", spec.Policy, err)
	}
	if rec != nil {
		if err := rec.Flush(); err != nil {
			return nil, err
		}
	}

	out := &harness.RunOutput{Spec: spec, CompletedAt: done}
	if tr != nil {
		s.begin("traffic.finalize", false)
		out.Traffic = tr.Finalize(done)
		out.Result = trafficRunResult(spec.Policy, out.Traffic, m)
		s.end()
	} else {
		s.begin("metrics.collect", false)
		out.Result, err = metrics.Collect(m, inst, spec.Policy)
		s.end()
		if err != nil {
			return nil, err
		}
	}
	out.DecisionTime, out.Decisions = engine.DecisionCost()
	out.EnergyJ = m.EnergyJoules()
	out.EDP = out.EnergyJ * float64(done) / 1000
	if gp != nil {
		out.Power = gp.Stats()
	}
	if dk != nil {
		out.PredMin, out.PredAvg, out.PredMax = dk.PredictionStats().MinAvgMax()
		out.ErrSeries = dk.ErrorSeries()
		out.History = dk.History()
		out.WatchdogTrips = dk.WatchdogTrips()
		out.FailedSwaps = dk.FailedSwaps()
		out.Sanitized = dk.SanitizedTotal()
	}
	return out, nil
}

// build creates the machine and registers the spec's threads on it.
func build(mcfg machine.Config, spec harness.RunSpec) (*machine.Machine, *dikeworkload.Instance, *traffic.Run, error) {
	m, err := machine.New(mcfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if spec.Traffic != nil {
		tr, err := traffic.Build(m, *spec.Traffic, spec.Seed)
		return m, nil, tr, err
	}
	inst, err := spec.Workload.Build(m, dikeworkload.BuildOptions{Seed: spec.Seed, Scale: spec.Scale})
	return m, inst, nil, err
}

// trafficRunResult is the harness's synthesis of a RunResult from an
// open-loop result: one bench per tenant class.
func trafficRunResult(policy string, tres *traffic.Result, m *machine.Machine) *metrics.RunResult {
	res := &metrics.RunResult{
		Policy: policy, Workload: "traffic:" + tres.Name, Type: dikeworkload.Balanced,
		Fairness: tres.FairnessJain, Makespan: float64(tres.DrainedAtMs),
		Swaps: m.SwapCount(), Migrations: m.MigrationCount(),
	}
	sum, n := 0.0, 0
	for _, c := range tres.Classes {
		cv := 0.0
		if c.MeanMs > 0 {
			cv = c.P99Ms/c.MeanMs - 1
		}
		res.Benches = append(res.Benches, metrics.BenchResult{Name: c.Name, Time: c.MaxMs, MeanThreadTime: c.MeanMs, CV: cv})
		if c.Completed > 0 {
			sum += c.MeanMs
			n++
		}
	}
	if n > 0 {
		res.AvgTime = sum / float64(n)
	}
	return res
}

// liveDikeConfig resolves a live run's Dike configuration the way the
// harness does: the goal follows the policy name and the placement seed
// the run seed.
func liveDikeConfig(spec harness.RunSpec) core.Config {
	cfg := core.DefaultConfig()
	if spec.DikeConfig != nil {
		cfg = *spec.DikeConfig
	}
	switch spec.Policy {
	case harness.PolicyDike:
		cfg.Goal = core.AdaptNone
	case harness.PolicyDikeAF:
		cfg.Goal = core.AdaptFairness
	case harness.PolicyDikeAP:
		cfg.Goal = core.AdaptPerformance
	case harness.PolicyDikeEA:
		cfg.Goal = core.AdaptEnergy
	}
	cfg.PlacementSeed = spec.Seed
	return cfg
}

// policy builds the named policy over plat, wrapped so its Quantum is a
// core.quantum (Dike, built from dikeCfg) or sched.quantum (the others)
// span.
func (s *scope) policy(name string, seed uint64, dikeCfg core.Config, plat platform.Platform) (sim.Policy, *core.Dike, replay.Meta, error) {
	meta := replay.Meta{Policy: name, Seed: seed}
	var p sim.Policy
	switch name {
	case harness.PolicyCFS:
		p = sched.NewCFS(plat, seed)
	case harness.PolicyNull:
		p = sched.NewNull(plat, seed)
	case harness.PolicyDIO:
		p = sched.NewDIO(plat, seed)
	case harness.PolicyRotate:
		p = sched.NewRotate(plat, seed)
	case harness.PolicyDike, harness.PolicyDikeAF, harness.PolicyDikeAP, harness.PolicyDikeEA:
		dk, err := core.New(plat, dikeCfg)
		if err != nil {
			return nil, nil, meta, err
		}
		if meta.PolicyConfig, err = json.Marshal(dikeCfg); err != nil {
			return nil, nil, meta, err
		}
		// The fairness governor couples to Dike through power.LimitFeed,
		// so the wrapper must keep exposing it.
		return tFeedPolicy{&tPolicy{s: s, p: dk, name: "core.quantum"}, dk}, dk, meta, nil
	default:
		return nil, nil, meta, fmt.Errorf("trace: policy %q is not wired in the traced copy", name)
	}
	return &tPolicy{s: s, p: p, name: "sched.quantum"}, nil, meta, nil
}

// replay is harness.Replay rebuilt with wrappers. It returns the
// replayed decision stream.
func (s *scope) replay(log []byte) (string, error) {
	s.begin("replay.decode", false)
	p, err := replay.NewPlayer(bytes.NewReader(log))
	s.end()
	if err != nil {
		return "", err
	}
	meta := p.Meta()
	// Replay builds Dike from the logged configuration verbatim.
	dcfg := core.DefaultConfig()
	if len(meta.PolicyConfig) > 0 {
		dcfg = core.Config{}
		if err := json.Unmarshal(meta.PolicyConfig, &dcfg); err != nil {
			return "", fmt.Errorf("trace: log policy config: %w", err)
		}
	}
	plat := s.platform("replay.platform", p)
	policy, dk, _, err := s.policy(meta.Policy, meta.Seed, dcfg, plat)
	if err != nil {
		return "", err
	}
	var gp *sched.Governed
	if len(meta.Power) > 0 {
		var setup power.Setup
		if err := json.Unmarshal(meta.Power, &setup); err != nil {
			return "", fmt.Errorf("trace: log governor setup: %w", err)
		}
		gov, err := power.New(setup.Config)
		if err != nil {
			return "", err
		}
		gov.Bind(p.Topology(), setup.Levels)
		gp = sched.Govern(policy, gov, plat, setup.Config.AdaptEvery)
		policy = &tPolicy{s: s, p: gp, name: "power.govern"}
	}
	s.begin("replay.run", false)
	_, err = replay.Run(p, policy)
	s.end()
	if err != nil {
		return "", err
	}
	var hist []core.QuantumRecord
	if dk != nil {
		hist = dk.History()
	}
	var ps *power.Stats
	if gp != nil {
		ps = gp.Stats()
	}
	return harness.RunDigest(meta.Policy, hist, nil, ps), nil
}

// tWorld wraps the machine as the engine's world. It forwards the
// engine's optional LiveCounter and Idler interfaces, so idle-skip
// behaves exactly as in the harness.
type tWorld struct {
	s *scope
	m *machine.Machine
}

func (w tWorld) Step(now, dt sim.Time) {
	w.s.begin("machine.step", true)
	w.m.Step(now, dt)
	w.s.end()
}

func (w tWorld) Done() bool                              { return w.m.Done() }
func (w tWorld) AliveCount() int                         { return w.m.AliveCount() }
func (w tWorld) IdleUntil(now sim.Time) (sim.Time, bool) { return w.m.IdleUntil(now) }

type tPolicy struct {
	s    *scope
	p    sim.Policy
	name string
}

func (p *tPolicy) Name() string           { return p.p.Name() }
func (p *tPolicy) QuantaLength() sim.Time { return p.p.QuantaLength() }
func (p *tPolicy) Quantum(now sim.Time) error {
	p.s.begin(p.name, false)
	err := p.p.Quantum(now)
	p.s.end()
	return err
}

type tFeedPolicy struct {
	*tPolicy
	feed power.LimitFeed
}

func (p tFeedPolicy) LimitingKind() (platform.CoreKind, bool) { return p.feed.LimitingKind() }

// tPlatform wraps what the policy sees: the machine, the recorder or the
// replay player. Each implements platform.PowerControl, which the
// wrapper forwards. Every call folds into a span named after the
// wrapped layer: <prefix>.sample, .affinity, .read or .power.
type tPlatform struct {
	s                            *scope
	p                            platform.Platform
	pc                           platform.PowerControl
	sample, affinity, read, powr string
}

func (s *scope) platform(prefix string, p platform.Platform) *tPlatform {
	return &tPlatform{s: s, p: p, pc: p.(platform.PowerControl),
		sample: prefix + ".sample", affinity: prefix + ".affinity", read: prefix + ".read", powr: prefix + ".power"}
}

func (t *tPlatform) Topology() *platform.Topology {
	t.s.begin(t.read, true)
	defer t.s.end()
	return t.p.Topology()
}

func (t *tPlatform) MemCapacity() float64 {
	t.s.begin(t.read, true)
	defer t.s.end()
	return t.p.MemCapacity()
}

func (t *tPlatform) Threads() []platform.ThreadID {
	t.s.begin(t.read, true)
	defer t.s.end()
	return t.p.Threads()
}

func (t *tPlatform) Alive() []platform.ThreadID {
	t.s.begin(t.read, true)
	defer t.s.end()
	return t.p.Alive()
}

func (t *tPlatform) CoreOf(id platform.ThreadID) (platform.CoreID, error) {
	t.s.begin(t.read, true)
	defer t.s.end()
	return t.p.CoreOf(id)
}

func (t *tPlatform) ProcessOf(id platform.ThreadID) (int, error) {
	t.s.begin(t.read, true)
	defer t.s.end()
	return t.p.ProcessOf(id)
}

func (t *tPlatform) Sample(now sim.Time) *platform.Sample {
	t.s.begin(t.sample, true)
	defer t.s.end()
	return t.p.Sample(now)
}

func (t *tPlatform) Place(id platform.ThreadID, core platform.CoreID) error {
	t.s.begin(t.affinity, true)
	defer t.s.end()
	return t.p.Place(id, core)
}

func (t *tPlatform) Migrate(id platform.ThreadID, core platform.CoreID, now sim.Time) error {
	t.s.begin(t.affinity, true)
	defer t.s.end()
	return t.p.Migrate(id, core, now)
}

func (t *tPlatform) Swap(a, b platform.ThreadID, now sim.Time) error {
	t.s.begin(t.affinity, true)
	defer t.s.end()
	return t.p.Swap(a, b, now)
}

func (t *tPlatform) PowerSample() platform.PowerSample {
	t.s.begin(t.powr, true)
	defer t.s.end()
	return t.pc.PowerSample()
}

func (t *tPlatform) SetDVFS(core platform.CoreID, level int) error {
	t.s.begin(t.powr, true)
	defer t.s.end()
	return t.pc.SetDVFS(core, level)
}
