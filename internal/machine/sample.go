package machine

import (
	"dike/internal/counters"
	"dike/internal/platform"
	"dike/internal/sim"
)

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
func (m *Machine) ProcessOf(id platform.ThreadID) (int, error) { return m.BenchOf(id) }

// Sample implements platform.Platform: it reads the counters at time now
// and returns deltas since the previous call. The first call returns
// zero deltas (Interval 0); callers typically skip scheduling on it.
// The machine keeps a single sampling stream — one policy per machine.
func (m *Machine) Sample(now sim.Time) *platform.Sample {
	interval := float64(now - m.sampledAt)
	if m.sampledAt == never {
		interval = 0
	}
	alive := m.AliveCount()
	out := &platform.Sample{
		Interval: interval,
		Threads:  make(map[platform.ThreadID]counters.ThreadDelta, alive),
		Cores:    make([]counters.CoreDelta, len(m.coreCtr)),
		Instr:    make(map[platform.ThreadID]float64, alive),
	}
	for _, t := range m.slots {
		if !t.alive(m.lastNow) {
			continue
		}
		delta := t.tc.Since(t.sampled, interval)
		t.sampled = t.tc
		// The cumulative instruction count is read directly (not via the
		// delta), so it survives individual lost samples.
		out.Instr[t.id] = t.tc.Instructions
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
	for c, cur := range m.coreCtr {
		out.Cores[c] = cur.Since(m.sampledCores[c], interval)
	}
	copy(m.sampledCores, m.coreCtr)
	m.sampledAt = now
	return out
}

// The machine is the reference platform implementation.
var _ platform.Platform = (*Machine)(nil)
