package harness

import (
	"context"
	"fmt"
	"slices"

	"dike/internal/machine"
	"dike/internal/platform"
	"dike/internal/power"
	"dike/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "energy",
		Title: "Energy: power caps × governor × policy, energy-delay product and fairness under throttling",
		Run:   runEnergy,
		// EDP is simulated joule-seconds, so the gate is exact: any rise
		// is a real scheduling/governing change, not runner noise.
		Gates: []MetricGate{{Metric: "edp", Tolerance: 0}},
		Check: checkEnergy,
	})
}

func energyKey(capW float64, policy, governor string) string {
	return fmt.Sprintf("%.0fW/%s/%s", capW, policy, governor)
}

// governed accepts the cells that ran under a governor.
func governed(e BenchEntry) bool { return e.Labels["governor"] != "" }

// checkEnergy: the ungoverned reference plus one cell per (cap, combo);
// every cell burned joules and finished; every governed cell invoked
// its governor; and at the tightest cap the fairness-coupled governor
// delivers strictly more fairness per joule-second (FPE) on dike-af than
// fixed-cap ondemand — spending the budget on the core type that limits
// the slowest thread has to beat blind throttling.
func checkEnergy(d *BenchDoc) []string {
	caps := energyCaps(d.Quick)
	v := d.wantEntries(1 + len(caps)*len(energyCombos(d.Quick)))
	v = append(v, d.positive(nil, "energy_j", "edp", "makespan_ms")...)
	v = append(v, d.positive(governed, "invocations")...)
	tightest := slices.Min(caps)
	od := d.entry(energyKey(tightest, PolicyDikeAF, power.GovernorOndemand))
	fg := d.entry(energyKey(tightest, PolicyDikeAF, power.GovernorFairness))
	switch {
	case od == nil || fg == nil:
		v = append(v, fmt.Sprintf("tightest cap %.0fW: missing ondemand/fairness dike-af cells", tightest))
	case !(fg.Metrics["fpe"] > od.Metrics["fpe"]):
		v = append(v, fmt.Sprintf(
			"tightest cap %.0fW: fairness governor FPE %.6g does not strictly beat ondemand %.6g",
			tightest, fg.Metrics["fpe"], od.Metrics["fpe"]))
	}
	return v
}

// dvfs8Spec is the energy grid's machine, mirrored byte-for-byte by
// examples/machines/dvfs8.json (a test asserts the two parse equal): 2
// sockets × (2 perf + 2 eff) physical cores, per-type DVFS ladders of 4
// and 3 levels, explicit power coefficients. At full load a socket
// draws ≈40 W, which the cap grid squeezes.
func dvfs8Spec() *platform.MachineSpec {
	return &platform.MachineSpec{
		CoreTypes: []platform.CoreTypeSpec{
			{Name: "perf", Speed: 2.4, SMTWays: 2, SMTPenalty: 0.75,
				DVFS: []float64{1, 0.85, 0.7, 0.55}, PowerStatic: 1.2, PowerPeak: 11.5},
			{Name: "eff", Speed: 1.2, SMTWays: 1,
				DVFS: []float64{1, 0.8, 0.6}, PowerStatic: 0.5, PowerPeak: 2.9},
		},
		Sockets: []platform.SocketSpec{
			{Cores: []platform.CoreGroup{{Type: "perf", Physical: 2}, {Type: "eff", Physical: 2}},
				Mem: platform.MemSpec{Capacity: 12, BaseLatency: 0.008, MaxUtil: 0.96}},
			{Cores: []platform.CoreGroup{{Type: "perf", Physical: 2}, {Type: "eff", Physical: 2}},
				Mem: platform.MemSpec{Capacity: 12, BaseLatency: 0.008, MaxUtil: 0.96}},
		},
		Distance: [][]float64{{0, 1}, {1, 0}},
	}
}

// dvfs8Machine wraps dvfs8Spec in a machine config with the default
// solver parameters.
func dvfs8Machine() *machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Spec = dvfs8Spec()
	return &cfg
}

// energyCaps returns the per-socket watt budgets, loosest first.
func energyCaps(quick bool) []float64 {
	if quick {
		return []float64{30, 18}
	}
	return []float64{30, 24, 18}
}

// energyCombos returns the (policy, governor) pairs swept at every cap.
// dike-ea pairs with ondemand: its energy-mode adaptation (longer
// quanta once the CV gate is satisfied) is visible under blind
// throttling, while under the fairness governor the gate rarely opens
// at these caps and the two Dike variants would coincide.
func energyCombos(quick bool) [][2]string {
	combos := [][2]string{
		{PolicyDikeAF, power.GovernorOndemand},
		{PolicyDikeAF, power.GovernorFairness},
		{PolicyDikeEA, power.GovernorOndemand},
	}
	if !quick {
		combos = append(combos,
			[2]string{PolicyDikeAF, power.GovernorThermal},
			[2]string{PolicyDikeEA, power.GovernorFairness})
	}
	return combos
}

// runEnergy sweeps power caps × (policy, governor) over the dvfs8
// machine and reports joules, energy-delay product and fairness under
// throttling, against an ungoverned dike-af reference. Each cell is one
// bench entry keyed "capW/policy/governor"; every number in it is
// simulated, so the document is byte-stable across hosts and runs.
func runEnergy(optsIn Options) (*Report, error) {
	opts := optsIn.withDefaults()
	scale := 0.25
	if opts.Quick {
		scale = 0.1
	}
	caps := energyCaps(opts.Quick)
	doc := newBenchDoc("energy", opts)
	doc.Scale = scale
	t := &Table{
		Title:  "Energy grid: per-socket cap × governor × policy on the dvfs8 machine",
		Header: []string{"cap", "policy", "governor", "joules", "makespan", "EDP", "fairness", "FPE", "acts"},
	}
	ctx := context.Background()
	cell := func(capW float64, pol, gov string) error {
		spec := RunSpec{
			// Workload 3 (memory-heavy mix): its CV trajectory crosses
			// Dike's fairness gate both ways at these caps, so dike-ea's
			// energy-mode adaptation actually shows up in the grid.
			Workload:      workload.MustTable2(3),
			Policy:        pol,
			MachineConfig: dvfs8Machine(),
			Seed:          opts.Seed,
			Scale:         scale,
		}
		if gov != "" {
			spec.Power = &power.Config{Governor: gov, CapWatts: capW}
			if gov == power.GovernorThermal {
				// The dvfs8 sockets steady-state near 60 °C under the
				// default RC model; trip points below that actually
				// exercise the throttle/hysteresis cycle in the grid.
				spec.Power.ThermalHot = 50
				spec.Power.ThermalCool = 40
			}
		}
		key := energyKey(capW, pol, gov)
		digest, err := spec.Digest()
		if err != nil {
			return fmt.Errorf("energy %s: %w", key, err)
		}
		out, err := Run(ctx, spec)
		if err != nil {
			return fmt.Errorf("energy %s: %w", key, err)
		}
		// EDP is joules × makespan-seconds (J·s, lower is better); FPE is
		// Eqn 4 fairness per J·s, the check's combined figure of merit.
		fpe := 0.0
		if out.EDP > 0 {
			fpe = out.Result.Fairness / out.EDP
		}
		labels := map[string]string{"policy": pol, "digest": digest}
		metrics := map[string]float64{
			"energy_j": out.EnergyJ, "edp": out.EDP, "makespan_ms": out.Result.Makespan,
			"fairness": out.Result.Fairness, "fpe": fpe,
		}
		capLabel, govLabel, acts := "-", "(none)", 0
		if gov != "" {
			// Invocations and actuations count governor adaptations and
			// the DVFS level changes they issued.
			acts = out.Power.Actions()
			labels["governor"] = gov
			metrics["cap_watts"] = capW
			metrics["invocations"] = float64(len(out.Power.Invocations))
			metrics["actuations"] = float64(acts)
			capLabel, govLabel = fmt.Sprintf("%.0fW", capW), gov
		}
		doc.add(key, labels, metrics)
		t.AddRow(capLabel, pol, govLabel,
			fmt.Sprintf("%.0f", out.EnergyJ), fmt.Sprintf("%.0f", out.Result.Makespan),
			fmt.Sprintf("%.1f", out.EDP), fmt.Sprintf("%.4f", out.Result.Fairness),
			fmt.Sprintf("%.3g", fpe), acts)
		return nil
	}
	if err := cell(0, PolicyDikeAF, ""); err != nil {
		return nil, err
	}
	for _, capW := range caps {
		for _, combo := range energyCombos(opts.Quick) {
			if err := cell(capW, combo[0], combo[1]); err != nil {
				return nil, err
			}
		}
	}
	notes := []string{
		fmt.Sprintf("seed %d, scale %.2f, dvfs8 machine (2 sockets × 2 perf + 2 eff, ≈40 W/socket unthrottled)", opts.Seed, scale),
		"EDP is joules × makespan-seconds (lower is better); FPE is fairness per J·s (higher is better)",
		"caps are per-socket watt budgets; the first row is the ungoverned dike-af reference",
	}
	if opts.Quick {
		notes = append(notes, "quick mode: caps {30, 18}, no thermal governor, scale 0.1")
	}
	return withBench(&Report{ID: "energy", Title: "Energy and power capping", Tables: []*Table{t}, Notes: notes}, doc, opts.BenchDir)
}
