// Package machine models the heterogeneous multicore the paper evaluates
// on (Table I): two pools of physical cores running at different
// frequencies, two SMT lanes per physical core, a shared last-level cache
// and a single memory controller whose bandwidth all threads contend for.
//
// The model is a deterministic, millisecond-granularity performance
// model, not a cycle-accurate simulator: each tick it solves a fixed
// point between per-thread progress and memory-controller latency, which
// is enough to reproduce the contention phenomenology the scheduler
// reacts to — differential slowdown of memory- vs compute-intensive
// threads, core-type speed asymmetry, SMT interference and migration
// cost.
//
// The machine is the reference implementation of platform.Platform:
// schedulers drive it exclusively through that seam, whose identifier
// and topology types (internal/platform) it uses as they are.
package machine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"dike/internal/counters"
	"dike/internal/platform"
	"dike/internal/sim"
)

// Config parameterises a Machine. DefaultConfig reproduces the paper's
// platform (Table I) in model units.
type Config struct {
	// Spec is the hardware: core types with their speeds, SMT widths and
	// DVFS tables, sockets with their memory controllers, and the
	// socket-distance matrix. Required.
	Spec *platform.MachineSpec

	// SMTPenalty is the throughput factor each SMT lane gets when its
	// sibling lane is also busy (e.g. 0.65: two busy hyperthreads each
	// run at 65% of the physical core's full rate). A core type's own
	// smt_penalty overrides it.
	SMTPenalty float64

	// Overlap is the fraction of miss latency hidden by memory-level
	// parallelism, in [0, 1).
	Overlap float64
	// LLCHitLatency is the stall per LLC hit, ms.
	LLCHitLatency float64

	// MigrationStall is how long a migrated thread is descheduled while
	// its context moves (the paper's swapOH).
	MigrationStall sim.Time
	// ColdMissFactor multiplies a thread's miss ratio right after a
	// cross-socket migration; it decays back to 1. Cross-socket moves on
	// the paper's two-socket platform strand the thread's pages on the
	// remote NUMA node, so the penalty is large and long-lived (until
	// page migration catches up).
	ColdMissFactor float64
	// ColdHalfLife is the decay half-life of the cross-socket penalty, ms.
	ColdHalfLife float64
	// LocalColdFactor/LocalColdHalfLife are the equivalents for
	// migrations within a socket, where the shared LLC stays warm: a
	// small, short penalty.
	LocalColdFactor   float64
	LocalColdHalfLife float64
	// RemoteLatencyFactor multiplies a thread's per-miss stall right
	// after a cross-socket migration: until the OS migrates its pages,
	// every miss is served from the remote NUMA node. It decays toward 1
	// with ColdHalfLife.
	RemoteLatencyFactor float64
}

// DefaultConfig returns the Table I machine: 10 fast physical cores on
// socket 0 and 10 slow ones on socket 1, 2-way SMT (40 logical cores),
// core speeds in the paper's 2.33/1.21 frequency ratio, one shared
// memory controller. Every call builds a fresh Spec, so callers may
// edit it in place.
func DefaultConfig() Config {
	return Config{
		Spec: &platform.MachineSpec{
			CoreTypes: []platform.CoreTypeSpec{
				{Name: "fast", Speed: 2.33, SMTWays: 2},
				{Name: "slow", Speed: 1.21, SMTWays: 2},
			},
			Sockets: []platform.SocketSpec{
				{Cores: []platform.CoreGroup{{Type: "fast", Physical: 10}}},
				{Cores: []platform.CoreGroup{{Type: "slow", Physical: 10}}},
			},
			SharedMem: &platform.MemSpec{Capacity: 80, BaseLatency: 0.008, MaxUtil: 0.96},
		},
		SMTPenalty:          0.78,
		Overlap:             0.30,
		LLCHitLatency:       0.0005,
		MigrationStall:      8,
		ColdMissFactor:      2.2,
		ColdHalfLife:        800,
		LocalColdFactor:     1.3,
		LocalColdHalfLife:   100,
		RemoteLatencyFactor: 1.7,
	}
}

// Validate reports the first problem with the configuration, or nil. The
// spec — including every memory controller — is validated first; a nil
// Spec is an error.
func (c Config) Validate() error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	// Each case negates the valid range, so NaN fails it too, and every
	// unbounded range stops at the largest finite float.
	const maxF = math.MaxFloat64
	switch {
	case !(c.SMTPenalty > 0 && c.SMTPenalty <= 1):
		return errors.New("machine: SMTPenalty must be in (0,1]")
	case !(c.Overlap >= 0 && c.Overlap < 1):
		return errors.New("machine: Overlap must be in [0,1)")
	case !(c.LLCHitLatency >= 0 && c.LLCHitLatency <= maxF):
		return errors.New("machine: LLCHitLatency must be finite and >= 0")
	case c.MigrationStall < 0:
		return errors.New("machine: negative MigrationStall")
	case !(c.ColdMissFactor >= 1 && c.ColdMissFactor <= maxF):
		return errors.New("machine: ColdMissFactor must be finite and >= 1")
	case !(c.ColdHalfLife > 0 && c.ColdHalfLife <= maxF):
		return errors.New("machine: ColdHalfLife must be finite and positive")
	case !(c.LocalColdFactor >= 1 && c.LocalColdFactor <= maxF):
		return errors.New("machine: LocalColdFactor must be finite and >= 1")
	case !(c.LocalColdHalfLife > 0 && c.LocalColdHalfLife <= maxF):
		return errors.New("machine: LocalColdHalfLife must be finite and positive")
	case !(c.RemoteLatencyFactor >= 1 && c.RemoteLatencyFactor <= maxF):
		return errors.New("machine: RemoteLatencyFactor must be finite and >= 1")
	}
	return nil
}

// thread is the machine-side execution state of one thread.
type thread struct {
	id       platform.ThreadID
	bench    int
	prog     Program
	total    float64 // prog.TotalWork(), read once at AddThread
	core     platform.CoreID
	placed   bool
	finished bool
	finishAt sim.Time
	// startAt is when the thread enters the system; it is invisible to
	// scheduling and makes no progress before then.
	startAt sim.Time
	// stallUntil: thread is descheduled (migration in flight) until then.
	stallUntil sim.Time
	// migratedAt anchors the cold-cache decay; negative = never migrated.
	// coldBoost/coldHalf are the penalty magnitude (factor-1) and decay
	// half-life set by the last migration's locality.
	migratedAt sim.Time
	coldBoost  float64
	coldHalf   float64
	numaBoost  float64
	// settleAge is the first migration age at which Step found both
	// factors settled to exactly 1; never until then. Migrate resets it.
	settleAge sim.Time
	barrier   *barrierGroup
	// seg is floor(work/barrier.interval), updated wherever a barrier
	// member's work changes, so limit divides nothing.
	seg float64
	// dem is the program's last demand answer and win the window it
	// holds for; Step asks again once the thread leaves it.
	dem Demand
	win Window
	// tc is the thread's counter block; tc.Work is its progress.
	tc counters.ThreadCounters
	// sampled is tc as of the last Sample that saw the thread alive.
	sampled counters.ThreadCounters
}

// alive reports whether t has arrived by now and not finished.
func (t *thread) alive(now sim.Time) bool { return !t.finished && t.startAt <= now }

// barrierGroup couples threads that synchronise every `interval` work
// units (the KMEANS model: "excessive inter-thread communication"). No
// member may run more than one barrier segment ahead of the slowest
// unfinished member.
type barrierGroup struct {
	interval float64
	members  []*thread
}

// limit returns the maximum work t may reach given the group's state.
// Members that have not arrived yet do not hold the barrier (they join
// at the group's current segment when they start).
func (g *barrierGroup) limit(t *thread, now sim.Time) float64 {
	minSeg := math.MaxFloat64
	for _, m := range g.members {
		if m.finished || m.startAt > now {
			continue
		}
		if m.seg < minSeg {
			minSeg = m.seg
		}
	}
	if minSeg == math.MaxFloat64 {
		return t.total
	}
	return (minSeg + 1) * g.interval
}

// Disruptor injects hardware-level faults into a running machine: core
// frequency faults and offlining, silent migration failures, thread
// stalls and crashes, and perturbed counter readings. The machine (and
// the counter sampler) consult it at well-defined points; a nil
// disruptor means a perfectly healthy platform. Implementations must be
// deterministic functions of their own seed and the query arguments so
// runs stay reproducible (the fault package provides one).
type Disruptor interface {
	// CoreFactor returns the speed multiplier for core c at time now:
	// 1 = healthy, in (0,1) = thermally throttled, 0 = offline (threads
	// bound to the core make no progress until it recovers).
	CoreFactor(c platform.CoreID, now sim.Time) float64
	// MigrationFails reports whether a migration of id to core `to`
	// requested at now silently fails: the affinity change is dropped
	// and no error surfaces, exactly like a lost IPI on real hardware.
	MigrationFails(id platform.ThreadID, to platform.CoreID, now sim.Time) bool
	// ThreadFault reports whether id is stalled (descheduled, making no
	// progress) or crashes (terminates with its work incomplete) during
	// the tick beginning at now. The crash answer must be stable for all
	// of now's fault window so repeated per-tick queries are idempotent.
	ThreadFault(id platform.ThreadID, now sim.Time) (stalled, crashed bool)
	// PerturbDelta perturbs a per-thread counter delta as it is sampled:
	// it may return a corrupted copy (NaN/Inf/negative/saturated
	// readings), or ok=false to drop the sample entirely (the reading
	// was lost).
	PerturbDelta(id platform.ThreadID, now sim.Time, d counters.ThreadDelta) (_ counters.ThreadDelta, ok bool)
}

// Machine is the simulated heterogeneous multicore. It implements
// sim.World. It is not safe for concurrent use; run one Machine per
// goroutine.
type Machine struct {
	cfg  Config
	topo *platform.Topology

	// Resolved machine model (built once in New from cfg.Spec):
	cores      []platform.Core    // topo.Cores(), indexed by CoreID
	ctrls      []MemController    // one per controller domain
	solvers    []contentionSolver // parallel to ctrls
	coreDomain []int              // logical core -> controller domain
	dist       [][]float64        // socket x socket distance matrix
	smtPen     []float64          // per-kind SMT penalty
	dvfsTab    [][]float64        // per-kind DVFS multiplier tables (nil = nominal only)
	dvfsLevel  []int              // per-core current DVFS level
	coreMult   []float64          // per-core current speed multiplier
	dynPeak    []float64          // per-kind dynamic watts at multiplier 1, one busy lane
	sockStatic []float64          // per-socket leakage watts (always burned)

	threads map[platform.ThreadID]*thread // by-id lookups for the affinity API
	// slots holds every registered thread in registration order. Only
	// admit's rescan and the once-per-quantum queries (Alive, Sample,
	// AliveCount) walk it; the per-tick loops walk live.
	slots  []*thread
	groups []*barrierGroup
	// live is the threads that had arrived and not finished at the last
	// admit, in registration order: Step and IdleUntil cost O(live),
	// not O(registered). admit rebuilds it from slots only when
	// an arrival may be due (now >= nextStart), when time went backwards
	// (now < liveAt), or when rescan is set; otherwise it only compacts
	// out threads that finished since.
	live      []*thread
	liveAt    sim.Time // now of the last admit
	nextStart sim.Time // earliest start among unfinished threads not in live; never if none
	// rescan is set when the cached nextStart may be stale: AddThread,
	// SetStart, and Terminate of a thread that had not been admitted.
	rescan     bool
	unfinished int // registered threads not yet finished; Done is unfinished == 0
	admitted   int // unfinished as of the last admit: compaction is due when they differ

	// coreCtr is each logical core's counter block. Sample differences it
	// against sampledCores, its value at the previous Sample, taken at
	// sampledAt (never before the first).
	coreCtr      []counters.CoreCounters
	sampledCores []counters.CoreCounters
	sampledAt    sim.Time

	// dirty is set by every event that changes what rebuild computes: a
	// change of the live set's membership, Place, a Migrate that moved a
	// thread, and SetDVFS. Step rebuilds the occupancy, the socket watts
	// and the live threads' rates only while it is set.
	dirty bool
	// decayTabs are the shared decay tables of the two configured
	// half-lives.
	decayTabs [2]decayTable

	disruptor Disruptor

	swaps      int
	migrations int
	lastUtil   float64  // controller utilisation at the end of the last step
	lastNow    sim.Time // time at the end of the last Step (for arrival checks)

	// Energy accounting, integrated every Step from the lowered power
	// model: cumulative joules and the per-socket watts of the last step.
	energyJ   float64
	sockWatts []float64
	sockDyn   []float64 // scratch: per-socket dynamic watts of the last rebuild

	// Step scratch, reused every tick so Step never allocates. The
	// occupancy counts and segment bounds are sized in resolve (one per
	// logical core, physical core or controller domain) and kept between
	// rebuilds; the per-thread buffers and the solvers' memo slices are
	// grown by AddThread to the registered thread count, so even the
	// first Step after placement allocates nothing.
	laneCount []int     // per logical core: live threads bound to it
	physBusy  []int     // per physical core: busy lanes
	coreRate  []float64 // per logical core holding a live thread: rateOf(c, 1)
	// The gather buffers are domain-major: domain d's active threads fill
	// positions segStart[d] up to segEnd[d], in registration order.
	segStart     []int
	segEnd       []int
	scratchT     []*thread // active threads, in registration order
	scratchPos   []int     // each active thread's position in the gather buffers
	scratchRates []float64
	scratchApw   []float64 // accesses per work unit
	scratchMpw   []float64 // misses per work unit
	scratchHit   []float64 // LLC-hit stall per work unit
	scratchLat   []float64
	scratchProg  []float64
}

// New builds a machine from cfg.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo, err := platform.BuildMachineTopology(cfg.Spec)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:       cfg,
		topo:      topo,
		threads:   make(map[platform.ThreadID]*thread),
		sampledAt: never,
	}
	m.resolve()
	return m, nil
}

// resolve lowers cfg.Spec into the runtime machine model — controllers,
// controller domains, distance matrix, per-kind SMT penalties, DVFS
// tables and power coefficients. A spec with SharedMem (Table I)
// resolves to a single controller domain spanning every socket.
func (m *Machine) resolve() {
	spec := m.cfg.Spec
	nk := m.topo.NumKinds()
	ns := m.topo.NumSockets()
	m.smtPen = make([]float64, nk)
	m.dvfsTab = make([][]float64, nk)
	// Power model: per-kind dynamic peak watts, and per-socket leakage
	// totals (one static contribution per physical core, counted once
	// across its SMT lanes). Types without explicit coefficients derive
	// them from their speed, so every machine has an energy meter.
	static := make([]float64, nk)
	m.dynPeak = make([]float64, nk)
	for k := range spec.CoreTypes {
		ct := &spec.CoreTypes[k]
		m.smtPen[k] = m.cfg.SMTPenalty
		if ct.SMTPenalty > 0 {
			m.smtPen[k] = ct.SMTPenalty
		}
		if len(ct.DVFS) > 0 {
			m.dvfsTab[k] = ct.DVFS
		}
		static[k] = ct.StaticPower()
		m.dynPeak[k] = ct.PeakPower()
	}
	sockDomain := make([]int, ns)
	if mem := spec.SharedMem; mem != nil {
		m.ctrls = []MemController{{Capacity: mem.Capacity, BaseLatency: mem.BaseLatency, MaxUtil: mem.MaxUtil}}
	} else {
		m.ctrls = make([]MemController, ns)
		for si, sock := range spec.Sockets {
			m.ctrls[si] = MemController{Capacity: sock.Mem.Capacity, BaseLatency: sock.Mem.BaseLatency, MaxUtil: sock.Mem.MaxUtil}
			sockDomain[si] = si
		}
	}
	m.dist = make([][]float64, ns)
	for i := range m.dist {
		m.dist[i] = make([]float64, ns)
		for j := range m.dist[i] {
			m.dist[i][j] = spec.SocketDistance(i, j)
		}
	}
	m.solvers = make([]contentionSolver, len(m.ctrls))
	for d := range m.ctrls {
		m.solvers[d] = contentionSolver{ctrl: &m.ctrls[d], overlap: m.cfg.Overlap}
	}
	m.segStart = make([]int, len(m.ctrls)+1)
	m.segEnd = make([]int, len(m.ctrls))
	m.cores = m.topo.Cores()
	nc := len(m.cores)
	m.coreDomain = make([]int, nc)
	m.dvfsLevel = make([]int, nc)
	m.coreMult = make([]float64, nc)
	m.laneCount = make([]int, nc)
	m.coreRate = make([]float64, nc)
	m.coreCtr = make([]counters.CoreCounters, nc)
	m.sampledCores = make([]counters.CoreCounters, nc)
	nphys := 0
	for _, c := range m.cores {
		m.coreDomain[c.ID] = sockDomain[c.Socket]
		m.coreMult[c.ID] = m.nominalMult(c.Kind)
		nphys = max(nphys, c.Physical+1)
	}
	m.physBusy = make([]int, nphys)
	m.sockStatic = make([]float64, ns)
	m.sockWatts = make([]float64, ns)
	m.sockDyn = make([]float64, ns)
	physSeen := make([]bool, nphys)
	for _, c := range m.cores {
		if !physSeen[c.Physical] {
			physSeen[c.Physical] = true
			m.sockStatic[c.Socket] += static[c.Kind]
		}
	}
	copy(m.sockWatts, m.sockStatic)
	m.decayTabs = [2]decayTable{sharedDecayTable(m.cfg.ColdHalfLife), sharedDecayTable(m.cfg.LocalColdHalfLife)}
}

// reserveScratch grows every per-thread Step buffer to hold n threads:
// the live set, the active list and each solver's memo to a capacity of
// n, and the gather buffers, which Step indexes by segment position, to
// a length of n.
func (m *Machine) reserveScratch(n int) {
	m.live = reserve(m.live, n)
	m.scratchT = reserve(m.scratchT, n)
	m.scratchPos = reserve(m.scratchPos, n)
	m.scratchRates = reserve(m.scratchRates, n)[:n]
	m.scratchApw = reserve(m.scratchApw, n)[:n]
	m.scratchMpw = reserve(m.scratchMpw, n)[:n]
	m.scratchHit = reserve(m.scratchHit, n)[:n]
	m.scratchLat = reserve(m.scratchLat, n)[:n]
	m.scratchProg = reserve(m.scratchProg, n)[:n]
	for d := range m.ctrls {
		m.solvers[d].reserve(n)
	}
}

// reserve returns s, with its contents, grown to a capacity of at least n.
func reserve[E any](s []E, n int) []E {
	if n > cap(s) {
		return slices.Grow(s, n-len(s))
	}
	return s
}

// nominalMult returns kind k's level-0 speed multiplier (1 when the
// type declares no DVFS table).
func (m *Machine) nominalMult(k platform.CoreKind) float64 {
	if tab := m.dvfsTab[k]; len(tab) > 0 {
		return tab[0]
	}
	return 1
}

// SetDisruptor attaches a fault injector (nil detaches). Call before the
// simulation starts; swapping mid-run is allowed but makes runs depend
// on when the swap happened.
func (m *Machine) SetDisruptor(d Disruptor) { m.disruptor = d }

// Topology returns the machine's core topology.
func (m *Machine) Topology() *platform.Topology { return m.topo }

// AddThread registers a thread with its program and owning benchmark id.
// Threads must be added before the simulation starts and placed with
// Place before the first Step.
func (m *Machine) AddThread(id platform.ThreadID, bench int, prog Program) error {
	if _, ok := m.threads[id]; ok {
		return fmt.Errorf("machine: duplicate thread %d", id)
	}
	if prog == nil {
		return fmt.Errorf("machine: thread %d has nil program", id)
	}
	total := prog.TotalWork()
	if total <= 0 {
		return fmt.Errorf("machine: thread %d has non-positive work", id)
	}
	t := &thread{
		id: id, bench: bench, prog: prog, total: total, migratedAt: -1, settleAge: never,
		win: Window{WorkFrom: math.NaN()}, // holds nothing: the first Step asks
	}
	m.threads[id] = t
	m.slots = append(m.slots, t)
	m.unfinished++
	m.rescan = true
	m.reserveScratch(len(m.slots))
	return nil
}

// SetStart delays a thread's arrival: before `at` it is not alive, holds
// no core and makes no progress. Models the paper's dynamic workloads
// where "threads will enter and leave the systems" (§III-F).
func (m *Machine) SetStart(id platform.ThreadID, at sim.Time) error {
	t, ok := m.threads[id]
	if !ok {
		return fmt.Errorf("machine: unknown thread %d", id)
	}
	if at < 0 {
		return fmt.Errorf("machine: negative start time for thread %d", id)
	}
	t.startAt = at
	m.rescan = true
	return nil
}

// StartOf returns a thread's arrival time (0 = present from the start).
func (m *Machine) StartOf(id platform.ThreadID) (sim.Time, error) {
	t, ok := m.threads[id]
	if !ok {
		return 0, fmt.Errorf("machine: unknown thread %d", id)
	}
	return t.startAt, nil
}

// AddBarrierGroup couples the given threads with a barrier every interval
// work units. All members must already be registered.
func (m *Machine) AddBarrierGroup(interval float64, members []platform.ThreadID) error {
	if interval <= 0 {
		return errors.New("machine: barrier interval must be positive")
	}
	if len(members) < 2 {
		return errors.New("machine: barrier group needs at least two members")
	}
	g := &barrierGroup{interval: interval}
	for _, id := range members {
		t, ok := m.threads[id]
		if !ok {
			return fmt.Errorf("machine: barrier member %d not registered", id)
		}
		if t.barrier != nil {
			return fmt.Errorf("machine: thread %d already in a barrier group", id)
		}
		g.members = append(g.members, t)
	}
	for _, t := range g.members {
		t.barrier = g
		t.seg = math.Floor(t.tc.Work / interval)
	}
	m.groups = append(m.groups, g)
	return nil
}

// Place sets a thread's initial core without any migration penalty.
func (m *Machine) Place(id platform.ThreadID, core platform.CoreID) error {
	t, ok := m.threads[id]
	if !ok {
		return fmt.Errorf("machine: unknown thread %d", id)
	}
	if int(core) < 0 || int(core) >= m.topo.NumCores() {
		return fmt.Errorf("machine: core %d out of range", core)
	}
	t.core = core
	t.placed = true
	m.dirty = true
	return nil
}

// Migrate moves a thread to a new core, charging the migration stall and
// cold-cache penalty. Migrating a finished thread is a no-op.
func (m *Machine) Migrate(id platform.ThreadID, core platform.CoreID, now sim.Time) error {
	t, ok := m.threads[id]
	if !ok {
		return fmt.Errorf("machine: unknown thread %d", id)
	}
	if int(core) < 0 || int(core) >= m.topo.NumCores() {
		return fmt.Errorf("machine: core %d out of range", core)
	}
	if t.finished {
		return nil
	}
	if t.core == core {
		return nil
	}
	if m.disruptor != nil && m.disruptor.MigrationFails(id, core, now) {
		// The affinity change is silently lost: the thread stays where it
		// was and no error surfaces. Schedulers that care must verify the
		// move took effect (core.Migrator does).
		return nil
	}
	// Cross-socket moves strand the thread's pages on the remote NUMA
	// node: a large, slowly-decaying miss penalty, scaled by the socket
	// distance (two-hop moves on big machines hurt proportionally more).
	// Same-socket moves keep the shared LLC warm.
	if d := m.dist[m.topo.SocketOf(t.core)][m.topo.SocketOf(core)]; d > 0 {
		t.coldBoost = (m.cfg.ColdMissFactor - 1) * d
		t.coldHalf = m.cfg.ColdHalfLife
		t.numaBoost = (m.cfg.RemoteLatencyFactor - 1) * d
	} else {
		t.coldBoost = m.cfg.LocalColdFactor - 1
		t.coldHalf = m.cfg.LocalColdHalfLife
		t.numaBoost = 0
	}
	t.core = core
	t.stallUntil = now + m.cfg.MigrationStall
	t.migratedAt = now
	t.settleAge = never
	t.tc.Migrations++
	m.migrations++
	m.dirty = true
	return nil
}

// Swap exchanges the cores of two threads (the paper's swap operation: a
// pair of migrations, no third core involved). It counts as one swap.
func (m *Machine) Swap(a, b platform.ThreadID, now sim.Time) error {
	ta, ok := m.threads[a]
	if !ok {
		return fmt.Errorf("machine: unknown thread %d", a)
	}
	tb, ok := m.threads[b]
	if !ok {
		return fmt.Errorf("machine: unknown thread %d", b)
	}
	if a == b || ta.finished || tb.finished {
		return nil
	}
	ca, cb := ta.core, tb.core
	if err := m.Migrate(a, cb, now); err != nil {
		return err
	}
	if err := m.Migrate(b, ca, now); err != nil {
		return err
	}
	m.swaps++
	return nil
}

// SwapCount returns the number of Swap operations performed so far.
func (m *Machine) SwapCount() int { return m.swaps }

// MigrationCount returns the number of individual thread migrations.
func (m *Machine) MigrationCount() int { return m.migrations }

// AliveCount implements sim.LiveCounter for horizon diagnostics.
func (m *Machine) AliveCount() int {
	n := 0
	for _, t := range m.slots {
		if t.alive(m.lastNow) {
			n++
		}
	}
	return n
}

// Utilization returns the memory controller utilisation measured during
// the most recent Step.
func (m *Machine) Utilization() float64 { return m.lastUtil }

// CoreOf returns the core a thread is currently bound to.
func (m *Machine) CoreOf(id platform.ThreadID) (platform.CoreID, error) {
	t, ok := m.threads[id]
	if !ok {
		return 0, fmt.Errorf("machine: unknown thread %d", id)
	}
	return t.core, nil
}

// BenchOf returns the benchmark id a thread belongs to.
func (m *Machine) BenchOf(id platform.ThreadID) (int, error) {
	t, ok := m.threads[id]
	if !ok {
		return 0, fmt.Errorf("machine: unknown thread %d", id)
	}
	return t.bench, nil
}

// Threads returns all thread ids in registration order.
func (m *Machine) Threads() []platform.ThreadID {
	out := make([]platform.ThreadID, len(m.slots))
	for i, t := range m.slots {
		out[i] = t.id
	}
	return out
}

// Alive returns the ids of unfinished threads that have arrived, in
// registration order.
func (m *Machine) Alive() []platform.ThreadID {
	out := make([]platform.ThreadID, 0, m.AliveCount())
	for _, t := range m.slots {
		if t.alive(m.lastNow) {
			out = append(out, t.id)
		}
	}
	return out
}

// Finished reports whether the thread has completed, and its finish time.
func (m *Machine) Finished(id platform.ThreadID) (sim.Time, bool) {
	t, ok := m.threads[id]
	if !ok || !t.finished {
		return 0, false
	}
	return t.finishAt, true
}

// Terminate ends a thread at time `at` with whatever work it has done.
// The open-loop traffic layer uses it for admission control: a rejected
// arrival is terminated the instant it would have entered the system, so
// it never occupies a lane. Terminating a finished thread is a no-op.
func (m *Machine) Terminate(id platform.ThreadID, at sim.Time) error {
	t, ok := m.threads[id]
	if !ok {
		return fmt.Errorf("machine: unknown thread %d", id)
	}
	if t.finished {
		return nil
	}
	t.finished = true
	m.unfinished--
	if t.startAt > m.liveAt {
		// Not admitted at the last admit: its start may be the cached
		// nextStart, which IdleUntil must not report.
		m.rescan = true
	}
	if at < t.startAt {
		at = t.startAt
	}
	t.finishAt = at
	return nil
}

// IdleUntil implements sim.Idler: when no unfinished thread has arrived
// by now, it returns the earliest future arrival time — the next instant
// at which the machine can make progress — and true. It returns false
// while any arrived thread is still running (or when the machine is
// done), so the engine only fast-forwards through genuinely empty
// intervals of an open-loop run.
func (m *Machine) IdleUntil(now sim.Time) (sim.Time, bool) {
	m.admit(now)
	if len(m.live) > 0 || m.nextStart == never {
		return 0, false
	}
	return m.nextStart, true
}

// never is nextStart when no unfinished thread is still to arrive.
const never = sim.Time(math.MaxInt64)

// stale reports whether admit(now) must rescan slots: an arrival may be
// due, time went backwards, or nextStart may be out of date.
func (m *Machine) stale(now sim.Time) bool {
	return m.rescan || now >= m.nextStart || now < m.liveAt
}

// admit brings live up to date for now: the unfinished threads with
// startAt <= now, in registration order. It rescans slots only when an
// arrival may be due, time went backwards, or rescan is set; otherwise it
// compacts out the threads that finished since the last admit, and only
// when some did, so a tick costs O(live) at most. A rescan, or a
// compaction that drops a thread, sets dirty.
func (m *Machine) admit(now sim.Time) {
	if m.stale(now) {
		live := m.live[:0]
		m.nextStart = never
		for _, t := range m.slots {
			switch {
			case t.finished:
			case t.startAt <= now:
				live = append(live, t)
			case t.startAt < m.nextStart:
				m.nextStart = t.startAt
			}
		}
		m.live, m.liveAt, m.rescan = live, now, false
		m.admitted, m.dirty = m.unfinished, true
		return
	}
	m.liveAt = now
	if m.admitted == m.unfinished {
		// Only AddThread adds to unfinished, and it forces a rescan: no
		// thread finished since the last admit.
		return
	}
	live := m.live[:0]
	for _, t := range m.live {
		if !t.finished {
			live = append(live, t)
		}
	}
	if len(live) < len(m.live) {
		m.dirty = true
	}
	m.live, m.admitted = live, m.unfinished
}

// Progress returns the fraction of its total work a thread has completed.
func (m *Machine) Progress(id platform.ThreadID) float64 {
	t, ok := m.threads[id]
	if !ok {
		return 0
	}
	return t.tc.Work / t.total
}

// Done implements sim.World: true once every thread has finished.
func (m *Machine) Done() bool { return m.unfinished == 0 }

// FinishedCount returns how many registered threads have finished:
// completed, crashed or terminated. It only grows, so a caller can skip
// work while it is unchanged.
func (m *Machine) FinishedCount() int { return len(m.slots) - m.unfinished }

// migrationFactors returns t's current cold-cache miss multiplier and
// its per-miss latency multiplier (remote NUMA accesses after a
// cross-socket migration). Both decay from the last migration with the
// same half-life, so one exp serves both.
//
// Once both boosts times the decay are below settleEps, 1+boost·decay
// rounds to exactly 1 (it would for anything below 2^-53), and the decay
// only falls as the age grows, so from that age on the factors are 1
// without evaluating the decay; an earlier age (time stepped backwards)
// evaluates it again.
func (m *Machine) migrationFactors(t *thread, now sim.Time) (cold, numa float64) {
	cold, numa = 1, 1
	if t.migratedAt < 0 || (t.coldBoost <= 0 && t.numaBoost <= 0) {
		return cold, numa
	}
	age := max(now-t.migratedAt, 0)
	if age >= t.settleAge {
		return cold, numa
	}
	decay := m.decay(age, t.coldHalf)
	cb, nb := t.coldBoost*decay, t.numaBoost*decay
	if cb < settleEps && nb < settleEps {
		t.settleAge = age
		return cold, numa
	}
	if t.coldBoost > 0 {
		cold = 1 + cb
	}
	if t.numaBoost > 0 {
		numa = 1 + nb
	}
	return cold, numa
}

// settleEps bounds boost·decay for a settled migration penalty: 2^7 below
// the 2^-53 under which 1+boost·decay rounds to 1, far more than the
// error of math.Exp.
const settleEps = 0x1p-60

// decay returns the migration decay at an age: from a shared table when
// one covers (age, half), else evaluated by decayAt.
func (m *Machine) decay(age sim.Time, half float64) float64 {
	for _, tab := range m.decayTabs {
		if tab.half == half && uint64(age) < uint64(len(tab.decay)) {
			return tab.decay[age]
		}
	}
	return decayAt(age, half)
}

// decayAt is exp(-age·ln2/half), the expression every decay, tabled or
// not, is computed by.
func decayAt(age sim.Time, half float64) float64 {
	return math.Exp(-float64(age) * math.Ln2 / half)
}

// decayTable is the migration decay of one half-life at the ages 0 up to
// len(decay)-1; empty when there is no table.
type decayTable struct {
	half  float64
	decay []float64
}

// decayTables is the process's shared decay tables by half-life, at most
// maxDecayTables of them, first come, first served. Each is filled by
// decayAt, so every entry is bit for bit what the fallback would compute,
// and is never written once published.
var decayTables = struct {
	sync.Mutex
	byHalf map[float64][]float64
}{byHalf: map[float64][]float64{}}

const maxDecayTables = 4

// sharedDecayTable returns half's shared table, building it on first use:
// 64 half-lives of ages, past the settle point of every migration
// penalty, and at most 2^16. It is empty for a half-life that is not
// positive, or once other half-lives hold every place.
func sharedDecayTable(half float64) decayTable {
	if !(half > 0) {
		return decayTable{}
	}
	decayTables.Lock()
	defer decayTables.Unlock()
	tab, ok := decayTables.byHalf[half]
	if !ok && len(decayTables.byHalf) < maxDecayTables {
		tab = make([]float64, int(min(math.Ceil(64*half), 1<<16)))
		for age := range tab {
			tab[age] = decayAt(sim.Time(age), half)
		}
		decayTables.byHalf[half] = tab
	}
	return decayTable{half, tab}
}

// rateOf returns the attainable compute rate of a thread on core c at
// speed factor f (1 on a healthy core), under the occupancy of the last
// rebuild.
func (m *Machine) rateOf(c platform.CoreID, f float64) float64 {
	core := &m.cores[c]
	rate := core.Speed * m.coreMult[c] * f // DVFS multiplier is exactly 1 at nominal
	if m.physBusy[core.Physical] > 1 {
		rate *= m.smtPen[core.Kind]
	}
	if n := m.laneCount[c]; n > 1 {
		rate /= float64(n) // lane time-sharing
	}
	return rate
}

// rebuild recomputes what Step reads of the occupancy: live threads per
// logical core, busy lanes per physical core (for the SMT penalty), each
// socket's watts, the rate on every core a live thread is bound to, and
// where each controller domain's segment of the gather buffers starts.
// Step calls it only while dirty is set; nothing else it reads changes
// between those events.
func (m *Machine) rebuild() {
	laneCount, physBusy, segStart := m.laneCount, m.physBusy, m.segStart
	clear(laneCount)
	clear(physBusy)
	clear(m.sockDyn)
	clear(segStart)
	for _, t := range m.live {
		if !t.placed {
			panic(fmt.Sprintf("machine: thread %d stepped before placement", t.id))
		}
		segStart[m.coreDomain[t.core]+1]++
		if laneCount[t.core] == 0 {
			c := &m.cores[t.core]
			// Dynamic power: the first busy lane of a physical core clocks
			// the full pipeline; further SMT lanes add only the duplicated
			// front-end share. Scales with the cube of the DVFS multiplier
			// (V ∝ f). Threads time-sharing one lane add nothing — a lane
			// is either clocked or not.
			share := smtDynShare
			if physBusy[c.Physical] == 0 {
				share = 1
			}
			mult := m.coreMult[t.core]
			m.sockDyn[c.Socket] += m.dynPeak[c.Kind] * mult * mult * mult * share
			physBusy[c.Physical]++
		}
		laneCount[t.core]++
	}
	// Leakage always burns; dynamic power follows lane occupancy. Folding
	// per socket in index order keeps the float stream deterministic.
	for s := range m.sockWatts {
		m.sockWatts[s] = m.sockStatic[s] + m.sockDyn[s]
	}
	for _, t := range m.live {
		m.coreRate[t.core] = m.rateOf(t.core, 1)
	}
	for d := 1; d < len(segStart); d++ {
		segStart[d] += segStart[d-1]
	}
	m.dirty = false
}

// Step implements sim.World. It advances all threads by dt ms, solving
// the contention fixed point once for the tick.
func (m *Machine) Step(now sim.Time, dt sim.Time) {
	if dt <= 0 {
		return
	}
	m.lastNow = now + dt
	m.admit(now)
	if m.dirty {
		m.rebuild()
	}
	// Integrate energy over the step at the watts of the last rebuild.
	fdtSec := float64(dt) / 1000
	for _, w := range m.sockWatts {
		m.energyJ += w * fdtSec
	}

	// Gather runnable threads, their attainable rates and the solver's
	// per-thread coefficients, computed once per tick rather than once per
	// solver pass. A thread's program is asked for demand only once the
	// thread leaves the window of its last answer. Each thread's inputs go
	// to the next position of its controller domain's segment.
	active, pos := m.scratchT[:0], m.scratchPos[:0]
	rates, apws, mpws := m.scratchRates, m.scratchApw, m.scratchMpw
	hits, lats, prog := m.scratchHit, m.scratchLat, m.scratchProg
	segEnd := m.segEnd
	copy(segEnd, m.segStart)
	hitLat := m.cfg.LLCHitLatency
	for _, t := range m.live {
		if t.stallUntil > now {
			t.tc.StallTime += float64(dt)
			continue
		}
		rate := m.coreRate[t.core]
		if m.disruptor != nil {
			stalled, crashed := m.disruptor.ThreadFault(t.id, now)
			if crashed {
				// Injected crash: the thread terminates with its work
				// incomplete, freeing its core.
				t.finished = true
				t.finishAt = now + dt
				m.unfinished--
				continue
			}
			if stalled {
				t.tc.StallTime += float64(dt)
				continue
			}
			factor := m.disruptor.CoreFactor(t.core, now)
			if factor <= 0 {
				// Core offline: the occupant cannot run until the core
				// recovers or the scheduler moves the thread elsewhere.
				t.tc.StallTime += float64(dt)
				continue
			}
			rate = m.rateOf(t.core, factor)
		}
		if !t.win.Contains(t.tc.Work, now) {
			t.dem, t.win = t.prog.DemandAt(t.tc.Work, now)
		}
		dem := t.dem
		cold, numa := m.migrationFactors(t, now)
		if cold > 1 {
			dem.MissRatio = math.Min(dem.MissRatio*cold, 1)
		}
		d := m.coreDomain[t.core]
		p := segEnd[d]
		segEnd[d] = p + 1
		active, pos = append(active, t), append(pos, p)
		rates[p] = rate
		apws[p] = dem.AccessesPerWork
		mpws[p] = dem.MissesPerWork()
		hits[p] = dem.AccessesPerWork * hitLat
		lats[p] = numa
	}
	m.scratchT, m.scratchPos = active, pos

	if len(active) == 0 {
		return
	}
	// The contention fixed point runs per memory controller, on its
	// domain's segment. One domain (a spec with SharedMem, such as Table
	// I) reports its utilisation as it is; several report the hottest.
	m.lastUtil = 0
	for d := range m.solvers {
		lo, hi := m.segStart[d], segEnd[d]
		if lo == hi {
			continue
		}
		offered := m.solvers[d].solve(rates[lo:hi], mpws[lo:hi], hits[lo:hi], lats[lo:hi], prog[lo:hi])
		if u := m.ctrls[d].Utilization(offered); u > m.lastUtil || len(m.ctrls) == 1 {
			m.lastUtil = u
		}
	}

	// Advance work, respecting per-thread remaining work and barrier
	// limits captured at the start of the tick.
	fdt := float64(dt)
	for i, t := range active {
		p := pos[i]
		dw := prog[p] * fdt
		tc := &t.tc
		limit := t.total - tc.Work
		if t.barrier != nil {
			if bl := t.barrier.limit(t, now) - tc.Work; bl < limit {
				limit = bl
			}
		}
		if limit < 0 {
			limit = 0
		}
		used := fdt
		if dw > limit {
			// Thread hits its work or barrier limit mid-tick: it runs only
			// the productive fraction, and finishes inside the tick.
			if dw > 0 {
				used = fdt * limit / dw
			}
			dw = limit
		}
		tc.Work += dw
		if t.barrier != nil {
			t.seg = math.Floor(tc.Work / t.barrier.interval)
		}
		tc.Instructions += dw * 1000
		tc.Accesses += dw * apws[p]
		misses := dw * mpws[p]
		tc.Misses += misses
		m.coreCtr[t.core].ServedMisses += misses
		if tc.Work >= t.total-1e-9 {
			t.finished = true
			m.unfinished--
			// Interpolate the finish instant inside the tick.
			t.finishAt = min(max(now+sim.Time(math.Ceil(used)), now+1), now+dt)
		}
	}
}

// SetDVFS sets a core's DVFS level: an index into its type's multiplier
// table (level 0 is nominal). Core types that declare no DVFS table only
// accept level 0.
func (m *Machine) SetDVFS(core platform.CoreID, level int) error {
	if int(core) < 0 || int(core) >= m.topo.NumCores() {
		return fmt.Errorf("machine: core %d out of range", core)
	}
	k := m.topo.Core(core).Kind
	if level == 0 {
		m.dvfsLevel[core] = 0
		m.coreMult[core] = m.nominalMult(k)
		m.dirty = true
		return nil
	}
	tab := m.dvfsTab[k]
	if level < 0 || level >= len(tab) {
		return fmt.Errorf("machine: core %d (type %s) has no DVFS level %d (levels: %d)",
			core, m.topo.KindName(k), level, max(len(tab), 1))
	}
	m.dvfsLevel[core] = level
	m.coreMult[core] = tab[level]
	m.dirty = true
	return nil
}

// smtDynShare is the fraction of a physical core's dynamic power each
// busy SMT lane beyond the first adds: siblings share the execution
// back-end, so a second lane duplicates only front-end switching.
const smtDynShare = 0.35

// PowerSample implements platform.PowerControl: a RAPL-style reading of
// cumulative energy plus the per-socket watts of the last step.
func (m *Machine) PowerSample() platform.PowerSample {
	return platform.PowerSample{Energy: m.energyJ, Watts: slices.Clone(m.sockWatts)}
}

// EnergyJoules returns the cumulative energy consumed since the start of
// the run, in joules.
func (m *Machine) EnergyJoules() float64 { return m.energyJ }

// PowerWatts returns the machine-wide power draw of the last step.
func (m *Machine) PowerWatts() float64 {
	t := 0.0
	for _, w := range m.sockWatts {
		t += w
	}
	return t
}

// KindDVFSLevels returns the per-kind DVFS level counts (index =
// CoreKind, at least 1 each). Governors bind to this table so their
// throttle grids match the machine's actual frequency ladders.
func (m *Machine) KindDVFSLevels() []int {
	out := make([]int, len(m.dvfsTab))
	for k, tab := range m.dvfsTab {
		out[k] = max(len(tab), 1)
	}
	return out
}
