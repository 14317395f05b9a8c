// Package traffic generates open-loop multi-tenant workloads: seedable
// arrival processes (Poisson, bursty MMPP, diurnal ramp) spawn
// short-lived request threads whose service demands are drawn from the
// existing application profiles. Tenant classes carry SLO targets and
// admission caps; the runtime accountant tracks per-request sojourn
// times and folds them into p50/p95/p99, SLO-violation rates and
// per-tenant fairness. Everything is a deterministic function of
// (Spec, seed): two runs with identical inputs see the identical
// arrival stream, the property the record/replay and digest layers
// rely on.
package traffic

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"dike/internal/workload"
)

// Arrival process names accepted by ArrivalSpec.Process.
const (
	ProcessPoisson = "poisson"
	ProcessMMPP    = "mmpp"
	ProcessDiurnal = "diurnal"
)

// Service-demand distributions accepted by ClassSpec.WorkDist.
const (
	WorkDistExp   = "exp"
	WorkDistFixed = "fixed"
)

// Spec describes an open-loop traffic scenario: the arrival window plus
// one or more tenant classes. It is part of harness.RunSpec's digest
// surface, so every field must be JSON-stable.
type Spec struct {
	// Name labels the scenario in reports. Default "traffic".
	Name string `json:"name,omitempty"`
	// HorizonMs is the arrival window in simulated milliseconds: no
	// request arrives at or after it (the run then drains). Required.
	HorizonMs int64 `json:"horizon_ms"`
	// Load scales every class's arrival rate — the offered-load knob the
	// utilization sweep turns. Zero means 1.
	Load float64 `json:"load,omitempty"`
	// Classes are the tenant classes sharing the machine.
	Classes []ClassSpec `json:"classes"`
}

// ClassSpec is one tenant class: an arrival process, a service-demand
// model and the SLO/admission contract.
type ClassSpec struct {
	// Name identifies the tenant. Required, unique within the spec.
	Name string `json:"name"`
	// Profile names the application profile (workload.LookupProfile)
	// whose phase shape each request of this class executes, rescaled to
	// the request's drawn service demand.
	Profile string `json:"profile"`
	// MeanWork is the mean service demand per request, in work units.
	MeanWork float64 `json:"mean_work"`
	// WorkDist draws per-request demand: "exp" (default; exponential
	// around MeanWork, clamped to [0.05, 8]×mean) or "fixed".
	WorkDist string `json:"work_dist,omitempty"`
	// Arrival is the class's arrival process.
	Arrival ArrivalSpec `json:"arrival"`
	// SLOMs is the sojourn-time target in ms; completed requests slower
	// than it count as SLO violations. Zero marks a batch class with no
	// latency contract.
	SLOMs float64 `json:"slo_ms,omitempty"`
	// MaxInSystem caps concurrently admitted, unfinished requests of the
	// class; arrivals beyond the cap are rejected at the door (admission
	// control). Zero means unlimited.
	MaxInSystem int `json:"max_in_system,omitempty"`
	// Weight scales the class's fair share in the per-tenant fairness
	// aggregate: a weight-2 tenant is entitled to half the normalized
	// slowdown of a weight-1 tenant. Zero means 1.
	Weight float64 `json:"weight,omitempty"`
}

// ArrivalSpec parameterises one class's arrival process.
type ArrivalSpec struct {
	// Process is poisson, mmpp or diurnal.
	Process string `json:"process"`
	// RatePerSec is the long-run mean arrival rate, requests/second
	// (before Spec.Load scaling). For mmpp and diurnal it is the
	// time-average rate, so sweeping Load moves offered load identically
	// across processes.
	RatePerSec float64 `json:"rate_per_sec"`

	// BurstFactor (mmpp) multiplies the calm-state rate while bursting.
	// Default 4.
	BurstFactor float64 `json:"burst_factor,omitempty"`
	// BurstMs / CalmMs (mmpp) are the mean dwell times of the burst and
	// calm states, ms. Defaults 500 and 2000.
	BurstMs float64 `json:"burst_ms,omitempty"`
	CalmMs  float64 `json:"calm_ms,omitempty"`

	// PeriodMs (diurnal) is the sinusoidal ramp period. Default: the
	// spec horizon (one full day per run).
	PeriodMs float64 `json:"period_ms,omitempty"`
	// Amplitude (diurnal) is the relative rate swing in [0, 1): the rate
	// ramps between (1−A)× and (1+A)× the mean. Zero means 0.5.
	Amplitude float64 `json:"amplitude,omitempty"`
}

// ParseSpec decodes and validates a JSON traffic spec. An unknown key
// is an error, so a typo'd field cannot silently run its default.
func ParseSpec(blob []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("traffic: parse spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("traffic: parse spec: data after the JSON value")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// maxClassEvents bounds the arrivals (and, for MMPP, the state changes)
// one class expects over the horizon: about a million requests, far
// beyond any scenario the machine model can run in reasonable time.
const maxClassEvents = 1 << 20

// Validate reports the first problem with the spec, or nil. Every
// range check negates the valid range, so NaN fails it too, and every
// unbounded range stops at the largest finite float.
func (s *Spec) Validate() error {
	const maxF = math.MaxFloat64
	if s.HorizonMs <= 0 {
		return fmt.Errorf("traffic: horizon_ms must be positive (got %d)", s.HorizonMs)
	}
	if !(s.Load >= 0 && s.Load <= maxF) {
		return fmt.Errorf("traffic: load must be finite and >= 0 (got %g)", s.Load)
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("traffic: spec has no classes")
	}
	seen := make(map[string]bool, len(s.Classes))
	for i, c := range s.Classes {
		if c.Name == "" {
			return fmt.Errorf("traffic: class %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("traffic: duplicate class %q", c.Name)
		}
		seen[c.Name] = true
		if _, err := workload.LookupProfile(c.Profile); err != nil {
			return fmt.Errorf("traffic: class %q: %w", c.Name, err)
		}
		if !(c.MeanWork > 0 && c.MeanWork <= maxF) {
			return fmt.Errorf("traffic: class %q: mean_work must be finite and positive", c.Name)
		}
		switch c.WorkDist {
		case "", WorkDistExp, WorkDistFixed:
		default:
			return fmt.Errorf("traffic: class %q: unknown work_dist %q", c.Name, c.WorkDist)
		}
		if !(c.SLOMs >= 0 && c.SLOMs <= maxF) {
			return fmt.Errorf("traffic: class %q: slo_ms must be finite and >= 0", c.Name)
		}
		if c.MaxInSystem < 0 {
			return fmt.Errorf("traffic: class %q: negative max_in_system", c.Name)
		}
		if !(c.Weight >= 0 && c.Weight <= maxF) {
			return fmt.Errorf("traffic: class %q: weight must be finite and >= 0", c.Name)
		}
		a := c.Arrival
		switch a.Process {
		case ProcessPoisson, ProcessMMPP, ProcessDiurnal:
		default:
			return fmt.Errorf("traffic: class %q: unknown arrival process %q", c.Name, a.Process)
		}
		if !(a.RatePerSec > 0 && a.RatePerSec <= maxF) {
			return fmt.Errorf("traffic: class %q: rate_per_sec must be finite and positive", c.Name)
		}
		if !(a.BurstFactor == 0 || (a.BurstFactor >= 1 && a.BurstFactor <= maxF)) {
			return fmt.Errorf("traffic: class %q: burst_factor must be finite and >= 1", c.Name)
		}
		if !(a.BurstMs >= 0 && a.BurstMs <= maxF && a.CalmMs >= 0 && a.CalmMs <= maxF) {
			return fmt.Errorf("traffic: class %q: mmpp dwell times must be finite and >= 0", c.Name)
		}
		if !(a.PeriodMs >= 0 && a.PeriodMs <= maxF) {
			return fmt.Errorf("traffic: class %q: period_ms must be finite and >= 0", c.Name)
		}
		if !(a.Amplitude >= 0 && a.Amplitude < 1) {
			return fmt.Errorf("traffic: class %q: amplitude must be in [0, 1)", c.Name)
		}
		// Generate draws every event of the horizon before the run
		// starts, so the number it will draw is bounded here.
		events := a.RatePerSec / 1000 * s.load() * float64(s.HorizonMs)
		if a.Process == ProcessMMPP {
			burstMs, calmMs := a.dwells()
			events += float64(s.HorizonMs) / min(burstMs, calmMs)
		}
		if !(events <= maxClassEvents) {
			return fmt.Errorf("traffic: class %q: about %.3g arrivals and state changes over the horizon, more than %d", c.Name, events, maxClassEvents)
		}
	}
	return nil
}

// classProfiles resolves every class's application profile. The spec
// must already be validated, so lookups only fail if the catalogue
// changes underneath us.
func classProfiles(s Spec) ([]*workload.Profile, error) {
	out := make([]*workload.Profile, len(s.Classes))
	for i, c := range s.Classes {
		p, err := workload.LookupProfile(c.Profile)
		if err != nil {
			return nil, fmt.Errorf("traffic: class %q: %w", c.Name, err)
		}
		out[i] = p
	}
	return out, nil
}

// Label returns the scenario label: Name, or "traffic" when unset.
func (s *Spec) Label() string {
	if s.Name != "" {
		return s.Name
	}
	return "traffic"
}

// load returns the resolved load multiplier.
func (s *Spec) load() float64 {
	if s.Load == 0 {
		return 1
	}
	return s.Load
}
