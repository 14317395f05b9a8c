package stats

// MovingMean is an exponentially-weighted moving mean. The paper's
// Observer keeps "the moving mean bandwidth for each core in the CoreBW
// variable and updates it every quanta"; EWMA is the standard lightweight
// realisation of that — O(1) state per core, no sample history. Here it
// holds each core's capability estimate and each process's baseline.
//
// The zero value is not ready for use; construct with NewMovingMean.
type MovingMean struct {
	alpha float64 // weight of the newest sample, in (0, 1]
	value float64
	n     int
}

// NewMovingMean returns a moving mean whose newest sample carries weight
// alpha. Alpha is clamped to (0, 1]; alpha = 1 degenerates to "latest
// sample wins".
func NewMovingMean(alpha float64) *MovingMean {
	if alpha <= 0 {
		alpha = 0.01
	}
	if alpha > 1 {
		alpha = 1
	}
	return &MovingMean{alpha: alpha}
}

// Add folds a new sample into the mean. The first sample initialises the
// mean exactly, so early estimates are unbiased.
func (m *MovingMean) Add(x float64) {
	if m.n == 0 {
		m.value = x
	} else {
		m.value = m.alpha*x + (1-m.alpha)*m.value
	}
	m.n++
}

// Value returns the current mean (0 before any sample).
func (m *MovingMean) Value() float64 { return m.value }

// Count returns how many samples have been folded in.
func (m *MovingMean) Count() int { return m.n }

// Reset forgets all samples.
func (m *MovingMean) Reset() { m.value, m.n = 0, 0 }
