package harness

import (
	"context"
	"fmt"

	"dike/internal/tournament"
)

func init() {
	register(Experiment{
		ID:    "tournament",
		Title: "Meta-scheduling tournament: policy × load leaderboard with per-cell regret vs oracle-best",
		Run:   runTournament,
		Check: checkTournament,
	})
}

// tournamentRegretMax is the meta policy's acceptance bar: its p99 may
// trail the per-load oracle-best fixed policy by at most 10%.
const tournamentRegretMax = 0.10

func tournamentKey(load float64, policy string) string {
	return fmt.Sprintf("%.2f/%s", load, policy)
}

// checkTournament: one cell per (load, policy), and at every load
// exactly one winner and a meta cell that is not oracle-eligible, beats
// the worst fixed policy's p99 and stays within tournamentRegretMax of
// the oracle-best.
func checkTournament(d *BenchDoc) []string {
	loads, policies := tournamentLoads(d.Quick), tournamentPolicies(d.Quick)
	v := d.wantEntries(len(loads) * len(policies))
	for _, load := range loads {
		winners, worstFixed := 0.0, 0.0
		for _, pol := range policies {
			if e := d.entry(tournamentKey(load, pol)); e != nil {
				winners += e.Metrics["winner"]
				if pol != PolicyMeta {
					worstFixed = max(worstFixed, e.Metrics["p99_ms"])
				}
			}
		}
		if winners != 1 {
			v = append(v, fmt.Sprintf("load %.2f: %g winners, want 1", load, winners))
		}
		meta := d.entry(tournamentKey(load, PolicyMeta))
		if meta == nil {
			v = append(v, fmt.Sprintf("load %.2f: no meta cell", load))
			continue
		}
		m := meta.Metrics
		if m["oracle"] != 0 {
			v = append(v, fmt.Sprintf("load %.2f: meta is oracle-eligible", load))
		}
		if worstFixed > 0 && m["p99_ms"] >= worstFixed {
			v = append(v, fmt.Sprintf("load %.2f: meta p99 %.0f ms does not beat worst fixed policy (%.0f)",
				load, m["p99_ms"], worstFixed))
		}
		if m["regret"] > tournamentRegretMax {
			v = append(v, fmt.Sprintf("load %.2f: meta regret %.1f%% exceeds %.0f%% of oracle-best",
				load, 100*m["regret"], 100*tournamentRegretMax))
		}
	}
	return v
}

// tournamentLoads returns the offered-load grid.
func tournamentLoads(quick bool) []float64 {
	if quick {
		return []float64{0.30, 0.95}
	}
	return []float64{0.30, 0.50, 0.70, 0.85, 0.95}
}

// tournamentPolicies returns the grid's entrants: the fixed comparison
// policies (the oracle-eligible pool) plus the meta policy competing on
// the same cells.
func tournamentPolicies(quick bool) []string {
	if quick {
		return []string{PolicyDIO, PolicyDikeAF, PolicyMeta}
	}
	return []string{PolicyCFS, PolicyDIO, PolicyDike, PolicyDikeAF, PolicyMeta}
}

// runTournament runs the level-2 competitive grid: every entrant policy
// (fixed comparison set + the meta policy) over the colocation scenario
// at every offered load, ranked per cell with regret against the
// per-load oracle-best fixed policy.
func runTournament(optsIn Options) (*Report, error) {
	opts := optsIn.withDefaults()
	horizon := int64(12_000)
	if opts.Quick {
		horizon = 4_000
	}
	loads := tournamentLoads(opts.Quick)
	policies := tournamentPolicies(opts.Quick)
	doc := newBenchDoc("tournament", opts)
	doc.HorizonMs = horizon
	t := &Table{
		Title:  "Tournament leaderboard: worst-tenant p99 per (load, policy), regret vs oracle-best",
		Header: []string{"load", "rank", "policy", "p99", "regret%", "viol%", "jain", "switches", "final"},
	}
	ctx := context.Background()
	// cell is one grid cell's run: the worst latency-critical tenant's
	// sojourn percentiles under one policy at one offered load.
	type cell struct {
		out                      *RunOutput
		digest                   string
		p50, p95, p99, violation float64
	}
	for _, load := range loads {
		cells := make(map[string]cell, len(policies))
		entries := make([]tournament.CellEntry, 0, len(policies))
		for _, pol := range policies {
			spec := RunSpec{Traffic: sloTraffic(load, horizon), Policy: pol, Seed: opts.Seed}
			digest, err := spec.Digest()
			if err != nil {
				return nil, fmt.Errorf("tournament %.2f/%s: %w", load, pol, err)
			}
			out, err := Run(ctx, spec)
			if err != nil {
				return nil, fmt.Errorf("tournament %.2f/%s: %w", load, pol, err)
			}
			c := cell{out: out, digest: digest}
			c.p50, c.p95, c.p99, c.violation = worstTenant(out.Traffic.Classes)
			cells[pol] = c
			entries = append(entries, tournament.CellEntry{Policy: pol, Objective: c.p99, Oracle: pol != PolicyMeta})
		}
		ranked, err := tournament.RankCell(entries)
		if err != nil {
			return nil, fmt.Errorf("tournament %.2f: %w", load, err)
		}
		// Cells enter the document in rank order. The digest label is
		// the run's content address, the value a dikeserved digest
		// lookup resolves, so any cell can be audited against a served
		// or replayed run.
		for _, re := range ranked {
			c := cells[re.Policy]
			tr := c.out.Traffic
			switches, final := 0, ""
			if ms := c.out.MetaStats; ms != nil {
				switches, final = ms.Switches, ms.FinalPolicy
			}
			labels := map[string]string{"policy": re.Policy, "digest": c.digest}
			if final != "" {
				labels["meta_final_policy"] = final
			}
			metrics := map[string]float64{
				"load": load, "arrivals": float64(tr.Arrivals), "rejected": float64(tr.Rejected),
				"completed": float64(tr.Completed), "p50_ms": c.p50, "p95_ms": c.p95, "p99_ms": c.p99,
				"violation_rate": c.violation, "fairness_jain": tr.FairnessJain,
				"oracle": boolMetric(re.Oracle), "rank": float64(re.Rank), "regret": re.Regret,
				"winner": boolMetric(re.Winner),
			}
			if switches != 0 {
				metrics["meta_switches"] = float64(switches)
			}
			doc.add(tournamentKey(load, re.Policy), labels, metrics)
			t.AddRow(fmt.Sprintf("%.2f", load), re.Rank, re.Policy,
				fmt.Sprintf("%.0f", c.p99), fmt.Sprintf("%+.1f", 100*re.Regret),
				fmt.Sprintf("%.1f", 100*c.violation), fmt.Sprintf("%.4f", tr.FairnessJain),
				switches, final)
		}
	}
	notes := []string{
		fmt.Sprintf("seed %d, arrival horizon %dms; objective is the worst latency-critical tenant's p99 sojourn (ms, simulated), lower is better", opts.Seed, horizon),
		"regret is p99 relative to the per-load oracle-best fixed policy; meta competes but is not oracle-eligible",
	}
	if opts.Quick {
		notes = append(notes, "quick mode: loads {0.30, 0.95}, horizon 4s, dio/dike-af/meta only")
	}
	return withBench(&Report{ID: "tournament", Title: "Competitive meta-scheduling tournament", Tables: []*Table{t}, Notes: notes}, doc, opts.BenchDir)
}
