package harness

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"dike/internal/core"
	"dike/internal/power"
	"dike/internal/replay"
	"dike/internal/sim"
	"dike/internal/tournament"
)

// ReplayOutput is what a replayed run yields. There is no machine model
// behind a replay, so there are no completion-time metrics — the
// product is the policy's reconstructed decision stream, which the
// replay backend has additionally verified against the recording.
type ReplayOutput struct {
	// Policy and Seed identify the recorded run.
	Policy string
	Seed   uint64
	// Quanta is the number of quantum boundaries replayed.
	Quanta int
	// CompletedAt is the simulated time of the last replayed event.
	CompletedAt sim.Time
	// PolicyStats mirrors RunOutput's: the reconstructed Dike, meta and
	// governor bookkeeping, which must digest identically to the live
	// run's.
	PolicyStats
}

// Replay re-runs a recorded log: it rebuilds the policy named in the
// log header over a replay.Player and drives it through every recorded
// quantum. The player verifies each decision against the recording, so
// a nil error means the current policy code reproduced the recorded run
// exactly; a *replay.DivergenceError pinpoints the first difference.
func Replay(r io.Reader) (*ReplayOutput, error) {
	p, err := replay.NewPlayer(r)
	if err != nil {
		return nil, err
	}
	meta := p.Meta()
	policy, err := build(p, meta)
	if err != nil {
		return nil, err
	}
	quanta, err := replay.Run(p, policy)
	if err != nil {
		return nil, err
	}
	return &ReplayOutput{
		Policy:      meta.Policy,
		Seed:        meta.Seed,
		Quanta:      quanta,
		CompletedAt: p.LastTime(),
		PolicyStats: policyStats(policy),
	}, nil
}

// RunDigest extends Digest with the meta policy's tournament stream
// and the power governor's decision stream: for fixed ungoverned runs
// it is exactly Digest; for meta runs the epoch records (times, scores,
// switches) join the content address, and for governed runs every
// governor invocation (watts seen, joules, DVFS actuations) does too —
// so two runs are byte-identical only when every tournament and every
// actuation decided identically.
func RunDigest(policy string, hist []core.QuantumRecord, ms *tournament.Stats, ps *power.Stats) string {
	d := Digest(policy, hist)
	if ms != nil {
		d += ms.Digest()
	}
	if ps != nil {
		d += ps.Digest()
	}
	return d
}

// Digest renders a run's per-quantum decision stream as deterministic
// text: one line per quantum record, floats in Go's shortest
// round-trip form. A live run and a replay of its recording produce
// byte-identical digests (the fairness gate values in particular are
// compared bit-for-bit, not approximately); CI records a run once,
// replays it twice and fails on any difference.
func Digest(policy string, hist []core.QuantumRecord) string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy %s\nquanta %d\n", policy, len(hist))
	for _, r := range hist {
		fmt.Fprintf(&b, "q t=%d fairness=%s swap=%d quanta=%d cand=%d acc=%d mem=%d alive=%d held=%d\n",
			int64(r.Time), strconv.FormatFloat(r.Fairness, 'g', -1, 64),
			r.SwapSize, int64(r.Quanta), r.Candidates, r.Accepted,
			r.MemThreads, r.Alive, r.Held)
	}
	return b.String()
}
