package core

import (
	"math"
	"testing"
)

func TestPredictProfit(t *testing.T) {
	// t_l (compute, rate 0.3) on a strong core (cap 1.2); t_h (memory,
	// baseline 3, rate 2.6) stuck on a weak core (cap 0.8).
	obs := makeObs([]obsSpec{
		{id: 0, proc: 0, class: ComputeClass, rate: 0.3, baseline: 0.3, core: 0, coreHigh: true, coreCap: 1.2},
		{id: 1, proc: 1, class: MemoryClass, rate: 2.6, baseline: 3.0, core: 1, coreCap: 0.8},
	})
	p := Predictor{SwapOH: 3}
	pred := p.Predict(obs, Pair{Low: 0, High: 1}, 500)

	// t_l moves to t_h's core (cap 0.8): predicted rate 0.8*0.3 = 0.24.
	if math.Abs(pred.PredLowRate-0.24) > 1e-9 {
		t.Errorf("PredLowRate = %v, want 0.24", pred.PredLowRate)
	}
	// t_h moves to t_l's core (cap 1.2): predicted rate 1.2*3 = 3.6.
	if math.Abs(pred.PredHighRate-3.6) > 1e-9 {
		t.Errorf("PredHighRate = %v, want 3.6", pred.PredHighRate)
	}
	// Profit per Eqns 1-2 with overhead fraction 3/500.
	oh := 3.0 / 500
	wantLow := 0.24 - 0.3 - oh*0.3
	wantHigh := 3.6 - 2.6 - oh*2.6
	if math.Abs(pred.Total-(wantLow+wantHigh)) > 1e-9 {
		t.Errorf("Total = %v, want %v", pred.Total, wantLow+wantHigh)
	}
	// This repair swap must be profitable.
	if pred.Total <= 0 {
		t.Errorf("repair swap unprofitable: %v", pred.Total)
	}
}

func TestPredictBadSwapNegative(t *testing.T) {
	// Swapping a memory thread from a strong core onto a weak one while a
	// compute thread takes the strong core loses access rate overall.
	obs := makeObs([]obsSpec{
		{id: 0, proc: 0, class: MemoryClass, rate: 3.6, baseline: 3.0, core: 0, coreHigh: true, coreCap: 1.2},
		{id: 1, proc: 1, class: ComputeClass, rate: 0.24, baseline: 0.3, core: 1, coreCap: 0.8},
	})
	p := Predictor{SwapOH: 3}
	pred := p.Predict(obs, Pair{Low: 1, High: 0}, 500)
	// Wait: pair is <low=compute on weak, high=memory on strong>. The
	// memory thread would move to the weak core: 0.8*3=2.4 < 3.6.
	if pred.Total >= 0 {
		t.Errorf("harmful swap has non-negative profit %v", pred.Total)
	}
}

func TestPredictOverheadScalesWithQuanta(t *testing.T) {
	obs := makeObs([]obsSpec{
		{id: 0, proc: 0, rate: 1, baseline: 1, core: 0, coreCap: 1},
		{id: 1, proc: 1, rate: 1, baseline: 1, core: 1, coreCap: 1},
	})
	p := Predictor{SwapOH: 10}
	short := p.Predict(obs, Pair{Low: 0, High: 1}, 100)
	long := p.Predict(obs, Pair{Low: 0, High: 1}, 1000)
	// Identical cores: profit is pure overhead; shorter quanta pay
	// proportionally more (Eqn 2).
	if short.Total >= long.Total {
		t.Errorf("short-quantum profit %v not below long-quantum %v", short.Total, long.Total)
	}
	ratio := short.Total / long.Total
	if math.Abs(ratio-10) > 1e-6 {
		t.Errorf("overhead ratio = %v, want 10", ratio)
	}
}

func TestPredictZeroQuantaNoOverhead(t *testing.T) {
	obs := makeObs([]obsSpec{
		{id: 0, proc: 0, rate: 1, baseline: 1, core: 0, coreCap: 1},
		{id: 1, proc: 1, rate: 1, baseline: 1, core: 1, coreCap: 1},
	})
	p := Predictor{SwapOH: 10}
	pred := p.Predict(obs, Pair{Low: 0, High: 1}, 0)
	if pred.Total != 0 {
		t.Errorf("zero quanta total = %v, want 0 (no overhead term)", pred.Total)
	}
}

func TestObservationPredictRate(t *testing.T) {
	obs := makeObs([]obsSpec{
		{id: 0, proc: 0, rate: 2, baseline: 2.5, core: 0, coreCap: 1.4},
	})
	if got := obs.PredictRate(0, 0); math.Abs(got-3.5) > 1e-9 {
		t.Errorf("PredictRate = %v, want 3.5", got)
	}
}
