package core

import "dike/internal/sim"

// Prediction is the Predictor's assessment of one candidate swap.
type Prediction struct {
	Pair Pair
	// Total is the sum (Eqn 3) of the expected access-rate changes of
	// the low- and high-access threads (Eqn 1).
	Total float64
	// PredLowRate/PredHighRate are the predicted post-swap access rates:
	// each thread is expected to consume its destination core's
	// bandwidth (the closed-loop model's core assumption).
	PredLowRate  float64
	PredHighRate float64
}

// Predictor implements the paper's closed-loop prediction model
// (Eqns 1–3). For a pair ⟨t_l, t_h⟩ the profit of swapping t_l is
//
//	profit(t_l) = CoreBW(core of t_h) − AccessRate(t_l) − Overhead(t_l)
//	Overhead(t_l) = swapOH/quantaLength · AccessRate(t_l)
//
// i.e. the expected access rate if the swap happens minus the expected
// rate if it does not (the thread keeps its current rate), minus the
// context-switch cost.
//
// The CoreBW term — "we assume that if a thread migrates to a new core,
// it consumes the new core's entire memory bandwidth" — is realised as
// Observation.PredictRate: the destination core's relative capability
// times the thread's own demand baseline. Using the destination core's
// raw served bandwidth instead would make every converged swap's total
// profit identically −Overhead (the two cores' bandwidths are exactly
// the two threads' current rates), collapsing the Decider into a reject-
// everything gate; DESIGN.md records this refinement.
//
// The model is closed-loop: capability, baseline and AccessRate all come
// from live feedback, so systematic error — including the unprofiled
// part of migration overhead — is absorbed on the next quantum rather
// than requiring offline training.
type Predictor struct {
	// SwapOH is the estimated per-swap overhead time, ms (Eqn 2).
	SwapOH float64
}

// Predict evaluates one candidate pair under observation obs with the
// current quantum length. Both members of pair must be alive in obs.
func (p Predictor) Predict(obs *Observation, pair Pair, quanta sim.Time) Prediction {
	lo, hi := obs.Index(pair.Low), obs.Index(pair.High)
	destLow := obs.CoreOf[hi]  // t_l moves to t_h's core
	destHigh := obs.CoreOf[lo] // and vice versa

	rateLow := obs.Rate[lo]
	rateHigh := obs.Rate[hi]
	ohFrac := 0.0
	if quanta > 0 {
		ohFrac = p.SwapOH / float64(quanta)
	}

	predLow := obs.PredictRate(pair.Low, destLow)
	predHigh := obs.PredictRate(pair.High, destHigh)
	profitLow := predLow - rateLow - ohFrac*rateLow
	profitHigh := predHigh - rateHigh - ohFrac*rateHigh

	return Prediction{
		Pair:         pair,
		Total:        profitLow + profitHigh,
		PredLowRate:  predLow,
		PredHighRate: predHigh,
	}
}
