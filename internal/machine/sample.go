package machine

import (
	"dike/internal/counters"
	"dike/internal/platform"
	"dike/internal/sim"
)

// sampler holds the machine's counter-snapshot state: the previous
// per-core counter values, so Sample can return deltas exactly as a
// sampling profiler would. Each thread's previous values live in its
// slot (thread.sampled).
type sampler struct {
	lastTime sim.Time
	first    bool
	prevC    []counters.CoreCounters
}

// MemCapacity implements platform.Platform: the service capacity of the
// machine's largest memory controller, in misses/ms. (Observers use it
// as a sanity bound for counter readings; on a multi-controller machine
// the largest controller bounds any single domain's throughput.)
func (m *Machine) MemCapacity() float64 {
	best := 0.0
	for _, c := range m.ctrls {
		if c.Capacity > best {
			best = c.Capacity
		}
	}
	return best
}

// ProcessOf implements platform.Platform; process membership is the
// benchmark a thread belongs to.
func (m *Machine) ProcessOf(id ThreadID) (int, error) { return m.BenchOf(id) }

// Sample implements platform.Platform: it reads the counters at time now
// and returns deltas since the previous call. The first call returns
// zero deltas (Interval 0); callers typically skip scheduling on it.
// The machine keeps a single sampling stream — one policy per machine.
func (m *Machine) Sample(now sim.Time) *platform.Sample {
	if m.smp == nil {
		m.smp = &sampler{
			first: true,
			prevC: make([]counters.CoreCounters, m.file.NumCores()),
		}
	}
	s := m.smp
	interval := float64(now - s.lastTime)
	if s.first {
		interval = 0
		s.first = false
	}
	alive := m.AliveCount()
	out := &platform.Sample{
		Interval: interval,
		Threads:  make(map[ThreadID]counters.ThreadDelta, alive),
		Cores:    make([]counters.CoreDelta, m.file.NumCores()),
		Instr:    make(map[ThreadID]float64, alive),
	}
	for _, t := range m.slots {
		if !t.alive(m.lastNow) {
			continue
		}
		cur := *t.tc
		delta := cur.Since(t.sampled, interval)
		t.sampled = cur
		// The cumulative instruction count is read directly (not via the
		// delta), so it survives individual lost samples.
		out.Instr[t.id] = cur.Instructions
		if m.disruptor != nil && interval > 0 {
			// Counter faults: the read may be lost (thread absent from the
			// sample) or corrupted. The underlying cumulative counters are
			// untouched, so a later successful read recovers.
			d, ok := m.disruptor.PerturbDelta(t.id, now, delta)
			if !ok {
				continue
			}
			delta = d
		}
		out.Threads[t.id] = delta
	}
	for c := 0; c < m.file.NumCores(); c++ {
		out.Cores[c] = m.file.DiffCore(c, s.prevC[c], interval)
		s.prevC[c] = m.file.Core(c)
	}
	s.lastTime = now
	return out
}

// The machine is the reference platform implementation.
var _ platform.Platform = (*Machine)(nil)
