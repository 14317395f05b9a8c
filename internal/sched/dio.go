package sched

import (
	"sort"

	"dike/internal/platform"
	"dike/internal/sim"
)

// DIO implements Distributed Intensity Online (Zhuravlev et al., ASPLOS
// 2010) as the paper describes it: "the scheduler measures last level
// cache miss rates at runtime, sorts them from highest to lowest, and
// then pairs threads by choosing one from top of the list (highest miss
// rate) and one from bottom of the list (lowest miss rate) and swaps
// them." Each quantum it swaps the extreme pair — no prediction, no
// profit gate, no fairness gate — so over a multi-minute run it performs
// on the order of a swap per quantum (Table III's ~2000), which is
// exactly the overhead Dike's predictor exists to avoid: "DIO swaps
// [its] threads in every quanta ignoring the overhead of thread
// migrations."
type DIO struct {
	p      platform.Platform
	seed   uint64
	ql     sim.Time
	placed bool
}

// DIOQuantum is DIO's scheduling quantum (100 ms; the swap counts in
// Table III correspond to roughly one swap per 100 ms over runs of a few
// minutes).
const DIOQuantum sim.Time = 100

// NewDIO returns a DIO policy over p.
func NewDIO(p platform.Platform, seed uint64) *DIO {
	return &DIO{p: p, seed: seed, ql: DIOQuantum}
}

// Name implements sim.Policy.
func (d *DIO) Name() string { return "dio" }

// QuantaLength implements sim.Policy.
func (d *DIO) QuantaLength() sim.Time { return d.ql }

// Quantum implements sim.Policy.
func (d *DIO) Quantum(now sim.Time) error {
	if !d.placed {
		if err := SpreadPlacement(d.p, d.seed); err != nil {
			return err
		}
		d.placed = true
		d.p.Sample(now) // establish the counter baseline
		return nil
	}
	sample := d.p.Sample(now)
	if sample.Interval <= 0 {
		return nil
	}
	alive := d.p.Alive()
	if len(alive) < 2 {
		return nil
	}
	// Sort by miss rate, highest first. Thread id breaks ties so the
	// order — and therefore the whole run — is deterministic.
	sorted := make([]platform.ThreadID, len(alive))
	copy(sorted, alive)
	sort.Slice(sorted, func(i, j int) bool {
		ri, rj := sample.AccessRate(sorted[i]), sample.AccessRate(sorted[j])
		if ri != rj {
			return ri > rj
		}
		return sorted[i] < sorted[j]
	})
	// Swap the extreme pair: highest miss rate with lowest.
	return d.p.Swap(sorted[0], sorted[len(sorted)-1], now)
}
