package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"dike/internal/serve/api"
	"dike/internal/tournament"
	"dike/internal/traffic"
)

func init() {
	register(Experiment{
		ID:    "tournament",
		Title: "Meta-scheduling tournament: policy × load leaderboard with per-cell regret vs oracle-best",
		Run:   runTournament,
		// Simulated time: exact, like the slo gate.
		Gates: []MetricGate{{Metric: "p99_ms", Tolerance: 0}},
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

// TournamentMeasure is one grid cell's deterministic measurement: the
// worst latency-critical tenant's sojourn percentiles under one policy
// at one offered load, plus the meta policy's switching record. It is
// a pure function of the cell's RunSpec, so a local and a served cell
// measure the same.
type TournamentMeasure struct {
	Load            float64
	Policy          string
	Arrivals        int
	Rejected        int
	Completed       int
	P50Ms           float64
	P95Ms           float64
	P99Ms           float64
	ViolationRate   float64
	FairnessJain    float64
	MetaSwitches    int
	MetaFinalPolicy string
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

// tournamentMeasure folds one local run into a cell measurement.
func tournamentMeasure(load float64, policy string, out *RunOutput) TournamentMeasure {
	tr := out.Traffic
	m := TournamentMeasure{
		Load: load, Policy: policy,
		Arrivals: tr.Arrivals, Rejected: tr.Rejected, Completed: tr.Completed,
		FairnessJain: tr.FairnessJain,
	}
	m.P50Ms, m.P95Ms, m.P99Ms, m.ViolationRate = worstTenant(tr.Classes)
	if ms := out.MetaStats; ms != nil {
		m.MetaSwitches = ms.Switches
		m.MetaFinalPolicy = ms.FinalPolicy
	}
	return m
}

// tournamentMeasureFromAPI folds a served run result into the same cell
// measurement a local run produces. The wire carries each class's
// violation rate, not its count; the count is recovered as
// round(rate·completed) — exact, since rate is the float64 quotient of
// two small integers — so both paths pool the same integers through
// worstTenant and score bit-identically.
func tournamentMeasureFromAPI(load float64, policy string, res *api.RunResult) (TournamentMeasure, error) {
	if res.Traffic == nil {
		return TournamentMeasure{}, fmt.Errorf("harness: served %s run has no traffic result", policy)
	}
	tr := res.Traffic
	m := TournamentMeasure{
		Load: load, Policy: policy,
		Arrivals: tr.Arrivals, Rejected: tr.Rejected, Completed: tr.Completed,
		FairnessJain:    tr.FairnessJain,
		MetaSwitches:    res.MetaSwitches,
		MetaFinalPolicy: res.MetaFinalPolicy,
	}
	classes := make([]traffic.ClassResult, len(tr.Classes))
	for i, c := range tr.Classes {
		classes[i] = traffic.ClassResult{
			SLOMs: c.SLOMs, Completed: c.Completed,
			P50Ms: c.P50Ms, P95Ms: c.P95Ms, P99Ms: c.P99Ms,
			Violations: int(math.Round(c.ViolationRate * float64(c.Completed))),
		}
	}
	m.P50Ms, m.P95Ms, m.P99Ms, m.ViolationRate = worstTenant(classes)
	return m, nil
}

// tournamentCell executes one grid cell locally, or, when served is
// set, against a running dikeserved/dikecoord instance whose own digest
// cache and store then dedup repeated grids.
func tournamentCell(ctx context.Context, served *api.Client, spec RunSpec, load float64) (TournamentMeasure, string, error) {
	if served != nil {
		return servedCell(ctx, served, spec, load)
	}
	digest, err := spec.Digest()
	if err != nil {
		return TournamentMeasure{}, "", err
	}
	out, err := Run(ctx, spec)
	if err != nil {
		return TournamentMeasure{}, "", err
	}
	return tournamentMeasure(load, spec.Policy, out), digest, nil
}

// servedCell submits the cell to the server and polls the job to its
// terminal state. The server resolves the request to the same RunSpec
// digest BuildRunSpec computes locally, so repeated grids hit its
// caches instead of simulating.
func servedCell(ctx context.Context, served *api.Client, spec RunSpec, load float64) (TournamentMeasure, string, error) {
	traffic, err := json.Marshal(spec.Traffic)
	if err != nil {
		return TournamentMeasure{}, "", err
	}
	seed := spec.Seed
	body, err := json.Marshal(api.RunRequest{Policy: spec.Policy, Seed: &seed, Traffic: traffic})
	if err != nil {
		return TournamentMeasure{}, "", err
	}
	sub, _, err := served.Submit(ctx, "/v1/runs", body)
	if err != nil {
		return TournamentMeasure{}, "", fmt.Errorf("harness: submit to %s: %w", served.Base, err)
	}
	view, err := served.Await(ctx, sub.ID, 50*time.Millisecond)
	if err != nil {
		return TournamentMeasure{}, "", fmt.Errorf("harness: await job %s: %w", sub.ID, err)
	}
	if view.Status != api.StatusDone {
		return TournamentMeasure{}, "", fmt.Errorf("harness: served %s/%.2f job %s: %s (%s)",
			spec.Policy, load, sub.ID, view.Status, view.Error)
	}
	var res api.RunResult
	if err := json.Unmarshal(view.Result, &res); err != nil {
		return TournamentMeasure{}, "", fmt.Errorf("harness: served run result: %w", err)
	}
	m, err := tournamentMeasureFromAPI(load, spec.Policy, &res)
	return m, sub.Digest, err
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
	var served *api.Client
	if opts.TournamentServer != "" {
		served = &api.Client{Base: opts.TournamentServer, HTTP: &http.Client{Timeout: 5 * time.Minute}}
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
	type cell struct {
		m      TournamentMeasure
		digest string
	}
	for _, load := range loads {
		cells := make(map[string]cell, len(policies))
		entries := make([]tournament.CellEntry, 0, len(policies))
		for _, pol := range policies {
			spec := RunSpec{Traffic: sloTraffic(load, horizon), Policy: pol, Seed: opts.Seed}
			m, digest, err := tournamentCell(ctx, served, spec, load)
			if err != nil {
				return nil, fmt.Errorf("tournament %.2f/%s: %w", load, pol, err)
			}
			cells[pol] = cell{m, digest}
			entries = append(entries, tournament.CellEntry{Policy: pol, Objective: m.P99Ms, Oracle: pol != PolicyMeta})
		}
		ranked, err := tournament.RankCell(entries)
		if err != nil {
			return nil, fmt.Errorf("tournament %.2f: %w", load, err)
		}
		// Cells enter the document in rank order. The digest label is
		// the run's content address, the value a dikeserved digest
		// lookup resolves, so any cell can be audited against a served
		// or replayed run. Every metric is simulated or derived from the
		// grid, so local and served grids write byte-identical documents.
		for _, re := range ranked {
			c := cells[re.Policy]
			m := c.m
			labels := map[string]string{"policy": m.Policy, "digest": c.digest}
			if m.MetaFinalPolicy != "" {
				labels["meta_final_policy"] = m.MetaFinalPolicy
			}
			metrics := map[string]float64{
				"load": load, "arrivals": float64(m.Arrivals), "rejected": float64(m.Rejected),
				"completed": float64(m.Completed), "p50_ms": m.P50Ms, "p95_ms": m.P95Ms, "p99_ms": m.P99Ms,
				"violation_rate": m.ViolationRate, "fairness_jain": m.FairnessJain,
				"oracle": boolMetric(re.Oracle), "rank": float64(re.Rank), "regret": re.Regret,
				"winner": boolMetric(re.Winner),
			}
			if m.MetaSwitches != 0 {
				metrics["meta_switches"] = float64(m.MetaSwitches)
			}
			doc.add(tournamentKey(load, m.Policy), labels, metrics)
			t.AddRow(fmt.Sprintf("%.2f", load), re.Rank, m.Policy,
				fmt.Sprintf("%.0f", m.P99Ms), fmt.Sprintf("%+.1f", 100*re.Regret),
				fmt.Sprintf("%.1f", 100*m.ViolationRate), fmt.Sprintf("%.4f", m.FairnessJain),
				m.MetaSwitches, m.MetaFinalPolicy)
		}
	}
	notes := []string{
		fmt.Sprintf("seed %d, arrival horizon %dms; objective is the worst latency-critical tenant's p99 sojourn (ms, simulated), lower is better", opts.Seed, horizon),
		"regret is p99 relative to the per-load oracle-best fixed policy; meta competes but is not oracle-eligible",
	}
	if opts.TournamentServer != "" {
		notes = append(notes, "cells simulated by "+opts.TournamentServer+" (server-side digest cache and durable store dedup repeated grids)")
	}
	if opts.Quick {
		notes = append(notes, "quick mode: loads {0.30, 0.95}, horizon 4s, dio/dike-af/meta only")
	}
	return withBench(&Report{ID: "tournament", Title: "Competitive meta-scheduling tournament", Tables: []*Table{t}, Notes: notes}, doc, opts.BenchDir)
}
