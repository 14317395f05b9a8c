package platformtest

import (
	"testing"

	"dike/internal/platform"
	"dike/internal/sim"
)

// Instance is one backend under conformance test.
//
// The platform must come pre-populated with at least four threads
// spread over at least two processes, none of which finish within 100ms
// of simulated time, on a topology of at least four logical cores. (The
// suite mutates placement freely, so hand it a dedicated instance.)
type Instance struct {
	// P is the platform under test.
	P platform.Platform
	// Advance moves the backing world from now to now+dt so counters
	// accumulate. Nil for backends with no world of their own (replay).
	Advance func(now, dt sim.Time)
	// Boundary marks a quantum boundary at now — the moment a driven
	// policy would run. Backends that snapshot per-quantum state hook it
	// (the recorder logs the alive set, the player loads it); nil is a
	// no-op.
	Boundary func(now sim.Time)
}

func (in *Instance) advance(now, dt sim.Time) {
	if in.Advance != nil {
		in.Advance(now, dt)
	}
}

func (in *Instance) boundary(now sim.Time) {
	if in.Boundary != nil {
		in.Boundary(now)
	}
}

// Conformance holds a backend to the platform contract. It drives a
// fixed call script — topology and identity reads, placement,
// sampling across two quanta, migration and swapping, and the
// documented error paths — asserting the invariants every backend must
// share. The script is deterministic, so running it against a recorder
// and then against a player of that recording replays cleanly; any
// contract the machine satisfies live must hold replayed.
func Conformance(t *testing.T, inst *Instance) {
	t.Helper()
	p := inst.P
	inst.boundary(0)

	// Topology: non-nil, shared, dense ids, positive speeds.
	topo := p.Topology()
	if topo == nil {
		t.Fatal("Topology returned nil")
	}
	if topo != p.Topology() {
		t.Error("Topology not stable across calls")
	}
	n := topo.NumCores()
	if n < 4 {
		t.Fatalf("conformance needs >= 4 cores, topology has %d", n)
	}
	for i := 0; i < n; i++ {
		c := topo.Core(platform.CoreID(i))
		if int(c.ID) != i {
			t.Errorf("core %d reports id %d", i, c.ID)
		}
		if c.Speed <= 0 {
			t.Errorf("core %d has non-positive speed %v", i, c.Speed)
		}
	}
	if p.MemCapacity() <= 0 {
		t.Errorf("MemCapacity = %v, want > 0", p.MemCapacity())
	}

	// Topology metadata: sockets and kinds form consistent tables. These
	// invariants hold for any machine shape — the legacy two-socket pair
	// or an N-type multi-socket spec — and must survive a replay round
	// trip bit-for-bit.
	if topo.NumSockets() < 1 {
		t.Errorf("NumSockets = %d, want >= 1", topo.NumSockets())
	}
	if topo.NumKinds() < 1 {
		t.Errorf("NumKinds = %d, want >= 1", topo.NumKinds())
	}
	// populated counts each kind's cores; speed is a kind's lowest-id
	// core's, the one KindsBySpeed ranks it by.
	populated := map[platform.CoreKind]int{}
	speed := map[platform.CoreKind]float64{}
	for i := 0; i < n; i++ {
		c := topo.Core(platform.CoreID(i))
		if c.Socket < 0 || c.Socket >= topo.NumSockets() {
			t.Errorf("core %d on socket %d, outside [0,%d)", i, c.Socket, topo.NumSockets())
		}
		if got := topo.SocketOf(c.ID); got != c.Socket {
			t.Errorf("SocketOf(%d) = %d, core says %d", i, got, c.Socket)
		}
		if int(c.Kind) < 0 || int(c.Kind) >= topo.NumKinds() {
			t.Errorf("core %d has kind %d, outside [0,%d)", i, c.Kind, topo.NumKinds())
		}
		if topo.KindName(c.Kind) == "" {
			t.Errorf("kind %d has empty name", c.Kind)
		}
		if populated[c.Kind] == 0 {
			speed[c.Kind] = c.Speed
		}
		populated[c.Kind]++
	}
	ranked := topo.KindsBySpeed()
	if len(ranked) != len(populated) {
		t.Errorf("KindsBySpeed lists %d kinds, %d populated", len(ranked), len(populated))
	}
	for i, k := range ranked {
		if populated[k] == 0 {
			t.Errorf("KindsBySpeed lists kind %v, which has no core", k)
		}
		if i > 0 && speed[k] > speed[ranked[i-1]] {
			t.Errorf("KindsBySpeed out of order: kind %v (%v) after %v (%v)", k, speed[k], ranked[i-1], speed[ranked[i-1]])
		}
	}

	// Thread identity: stable order, known processes.
	threads := p.Threads()
	if len(threads) < 4 {
		t.Fatalf("conformance needs >= 4 threads, platform has %d", len(threads))
	}
	again := p.Threads()
	for i := range threads {
		if again[i] != threads[i] {
			t.Fatal("Threads order not stable across calls")
		}
	}
	procs := map[int]bool{}
	for _, id := range threads {
		proc, err := p.ProcessOf(id)
		if err != nil {
			t.Fatalf("ProcessOf(%d): %v", id, err)
		}
		procs[proc] = true
	}
	if len(procs) < 2 {
		t.Errorf("conformance needs >= 2 processes, got %d", len(procs))
	}

	// Unknown-thread reads fail; they must not consume replay state.
	bogus := threads[len(threads)-1] + 1000
	if _, err := p.CoreOf(bogus); err == nil {
		t.Error("CoreOf(unknown) did not fail")
	}
	if _, err := p.ProcessOf(bogus); err == nil {
		t.Error("ProcessOf(unknown) did not fail")
	}

	// Placement: each thread on a distinct core, visible through CoreOf.
	for i, id := range threads {
		if err := p.Place(id, platform.CoreID(i%n)); err != nil {
			t.Fatalf("Place(%d, %d): %v", id, i%n, err)
		}
	}
	for i, id := range threads {
		c, err := p.CoreOf(id)
		if err != nil {
			t.Fatalf("CoreOf(%d): %v", id, err)
		}
		if c != platform.CoreID(i%n) {
			t.Errorf("thread %d on core %d, want %d", id, c, i%n)
		}
	}
	// Out-of-range placement fails and moves nothing.
	if err := p.Place(threads[0], platform.CoreID(n+100)); err == nil {
		t.Error("Place on out-of-range core did not fail")
	}
	if c, _ := p.CoreOf(threads[0]); c != 0 {
		t.Errorf("failed Place moved thread to core %d", c)
	}

	// Alive ⊆ Threads; all conformance threads outlive the script.
	known := map[platform.ThreadID]bool{}
	for _, id := range threads {
		known[id] = true
	}
	alive := p.Alive()
	if len(alive) < 4 {
		t.Fatalf("Alive lists %d threads, want >= 4", len(alive))
	}
	for _, id := range alive {
		if !known[id] {
			t.Errorf("Alive lists unregistered thread %d", id)
		}
	}

	// Sampling: a baseline at t=0, then a 50ms quantum of accumulation.
	s0 := p.Sample(0)
	if s0.Interval != 0 {
		t.Errorf("first sample interval = %v, want 0", s0.Interval)
	}
	inst.advance(0, 50)
	inst.boundary(50)
	s1 := p.Sample(50)
	if s1.Interval != 50 {
		t.Errorf("second sample interval = %v, want 50", s1.Interval)
	}
	if len(s1.Cores) != n {
		t.Errorf("sample has %d core deltas, want %d", len(s1.Cores), n)
	}
	for _, id := range alive {
		d, ok := s1.Threads[id]
		if !ok {
			t.Errorf("thread %d missing from sample", id)
			continue
		}
		if !d.Sane() {
			t.Errorf("thread %d delta not sane: %+v", id, d)
		}
		if d.Work <= 0 {
			t.Errorf("thread %d made no progress over the quantum", id)
		}
		if s1.Instr[id] < d.Instructions {
			t.Errorf("thread %d cumulative instructions %v below quantum delta %v", id, s1.Instr[id], d.Instructions)
		}
	}

	// Migration: the thread lands on the requested core (healthy
	// platform) and the move is visible immediately.
	if err := p.Migrate(threads[0], platform.CoreID(1%n), 50); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if c, _ := p.CoreOf(threads[0]); c != platform.CoreID(1%n) {
		t.Errorf("migrated thread on core %d, want %d", c, 1%n)
	}

	// Swap: the two threads exchange cores exactly.
	inst.advance(50, 25)
	inst.boundary(75)
	a, b := threads[1], threads[2]
	ca, _ := p.CoreOf(a)
	cb, _ := p.CoreOf(b)
	if err := p.Swap(a, b, 75); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if na, _ := p.CoreOf(a); na != cb {
		t.Errorf("after swap, thread %d on core %d, want %d", a, na, cb)
	}
	if nb, _ := p.CoreOf(b); nb != ca {
		t.Errorf("after swap, thread %d on core %d, want %d", b, nb, ca)
	}

	// A third sample continues the same stream.
	s2 := p.Sample(75)
	if s2.Interval != 25 {
		t.Errorf("third sample interval = %v, want 25", s2.Interval)
	}
}
