// Package power is the energy subsystem: a deterministic power model
// lowered into the machine (static leakage + cubic-in-frequency dynamic
// switching, SMT occupancy scaling) and the governors that actuate DVFS
// against it.
//
// A governor is invoked on the scheduler's adaptation cadence (every
// AdaptEvery policy quanta), reads the platform's energy meter through
// platform.PowerControl, and throttles or relaxes per-core frequency
// levels through the same seam. Both calls are recorded by the replay
// layer, so a governed run — including every DVFS actuation — replays
// and re-verifies byte-exactly. Governor decisions also ride the run
// digest (Stats.Digest), so two runs that governed differently can
// never hash alike.
package power

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"dike/internal/platform"
	"dike/internal/sim"
)

// Registered governor names, accepted by Config.Governor.
const (
	GovernorOndemand = "ondemand"
	GovernorThermal  = "thermal"
	GovernorFairness = "fairness"
)

// Config parameterises a governed run. It rides the RunSpec content
// address as a trailing omitempty field and the replay log header, so a
// governed run's identity includes exactly how it was governed.
type Config struct {
	// Governor names the registered governor: "ondemand", "thermal" or
	// "fairness". Empty means ungoverned (no power capping).
	Governor string `json:"governor"`
	// CapWatts is the per-socket power budget for the capping governors
	// (ondemand, fairness). Ignored by thermal.
	CapWatts float64 `json:"cap_watts,omitempty"`
	// AdaptEvery is how many policy quanta pass between governor
	// invocations — the scheduler's adaptation interval. Default 4,
	// matching core.DefaultConfig().AdaptEvery.
	AdaptEvery int `json:"adapt_every,omitempty"`

	// Thermal-RC parameters (thermal governor only). The per-socket
	// temperature state follows an RC charge curve toward Watts·ThermalR
	// with step weight ThermalAlpha per invocation; the governor
	// throttles above ThermalHot and only unthrottles below ThermalCool
	// (hysteresis).
	ThermalR     float64 `json:"thermal_r,omitempty"`
	ThermalAlpha float64 `json:"thermal_alpha,omitempty"`
	ThermalHot   float64 `json:"thermal_hot,omitempty"`
	ThermalCool  float64 `json:"thermal_cool,omitempty"`
}

// WithDefaults fills zero-valued fields with their defaults.
func (c Config) WithDefaults() Config {
	if c.AdaptEvery == 0 {
		c.AdaptEvery = 4
	}
	if c.ThermalR == 0 {
		c.ThermalR = 1.5
	}
	if c.ThermalAlpha == 0 {
		c.ThermalAlpha = 0.3
	}
	if c.ThermalHot == 0 {
		c.ThermalHot = 70
	}
	if c.ThermalCool == 0 {
		c.ThermalCool = 55
	}
	return c
}

// Validate reports the first problem with the configuration, or nil.
// The zero Config (ungoverned) is valid; any other setting without a
// governor is an error, since an ungoverned run would ignore it. Every
// range check negates the valid range, so NaN fails it too, and every
// unbounded range stops at the largest finite float. The thermal
// settings join the digest whatever the governor, so they are checked
// for every governor.
func (c Config) Validate() error {
	if c.Governor == "" {
		if c != (Config{}) {
			return errors.New("power: settings without a governor, which an ungoverned run ignores")
		}
		return nil
	}
	if !Known(c.Governor) {
		return fmt.Errorf("power: unknown governor %q (known: %s)", c.Governor, strings.Join(Names(), ", "))
	}
	if c.AdaptEvery < 0 {
		return errors.New("power: negative AdaptEvery")
	}
	const maxF = math.MaxFloat64
	if !(c.CapWatts >= 0 && c.CapWatts <= maxF) {
		return fmt.Errorf("power: cap_watts must be finite and >= 0, got %g", c.CapWatts)
	}
	if (c.Governor == GovernorOndemand || c.Governor == GovernorFairness) && !(c.CapWatts > 0) {
		return fmt.Errorf("power: governor %q requires cap_watts > 0", c.Governor)
	}
	d := c.WithDefaults()
	if !(d.ThermalR > 0 && d.ThermalR <= maxF && d.ThermalAlpha > 0 && d.ThermalAlpha <= 1) {
		return errors.New("power: thermal_r must be finite and > 0 and thermal_alpha in (0,1]")
	}
	if !(-maxF <= d.ThermalCool && d.ThermalCool < d.ThermalHot && d.ThermalHot <= maxF) {
		return fmt.Errorf("power: thermal_cool %g must be finite and below a finite thermal_hot %g", d.ThermalCool, d.ThermalHot)
	}
	return nil
}

// Setup is the governed run's replay-header payload: the resolved
// governor configuration plus the per-kind DVFS level counts the
// governor was bound with, so a replay rebuilds the identical governor
// without access to the machine spec.
type Setup struct {
	Config Config `json:"config"`
	// Levels holds, per core kind, how many DVFS levels the kind's type
	// declares (at least 1).
	Levels []int `json:"levels"`
}

// Actuator is the narrow write seam a governor actuates through. The
// platform's PowerControl satisfies it; the governed-policy wrapper
// interposes to record every actuation for the run digest.
type Actuator interface {
	SetDVFS(core platform.CoreID, level int) error
}

// LimitFeed is implemented by policies that can name the core kind
// currently limiting their slowest thread — Dike's fairness gate
// exposes it. The fairness-coupled governor spends the power budget on
// that kind. The feed is not recorded: it is recomputed identically at
// replay because the policy itself is rebuilt deterministically.
type LimitFeed interface {
	LimitingKind() (platform.CoreKind, bool)
}

// FeedSetter is implemented by governors that consume a LimitFeed.
type FeedSetter interface {
	SetFeed(LimitFeed)
}

// Governor adapts frequency levels to a power or thermal envelope.
// Implementations must be deterministic: identical call sequences must
// produce identical actuation sequences.
type Governor interface {
	// Name identifies the governor in reports and the replay header.
	Name() string
	// Bind hands the governor its machine view before the run: the core
	// topology and the per-kind DVFS level counts.
	Bind(topo *platform.Topology, levels []int)
	// Adapt runs one governor invocation at simulated time now with the
	// current energy-meter reading, actuating through act.
	Adapt(now sim.Time, s platform.PowerSample, act Actuator)
}

// Info describes one registered governor for listings.
type Info struct {
	Name        string
	Description string
}

// registry lists the built-in governors; order is presentation order.
var registry = []Info{
	{Name: GovernorOndemand, Description: "fixed power cap: throttles a socket's DVFS one level when it exceeds cap_watts, relaxes when comfortably under"},
	{Name: GovernorThermal, Description: "thermal RC model: per-socket heat state charges toward watts*R; throttles above thermal_hot, unthrottles below thermal_cool"},
	{Name: GovernorFairness, Description: "fairness-coupled cap: under cap_watts pressure, throttles every core type except the one Dike's fairness gate says limits the slowest thread"},
}

// Governors returns the registered governors in presentation order.
func Governors() []Info {
	out := make([]Info, len(registry))
	copy(out, registry)
	return out
}

// Names returns the registered governor names.
func Names() []string {
	out := make([]string, len(registry))
	for i, g := range registry {
		out[i] = g.Name
	}
	return out
}

// Known reports whether name is a registered governor.
func Known(name string) bool {
	for _, g := range registry {
		if g.Name == name {
			return true
		}
	}
	return false
}

// New builds the configured governor. cfg is validated and defaulted;
// an empty Governor name is an error — callers gate on it first.
func New(cfg Config) (Governor, error) {
	if cfg.Governor == "" {
		return nil, errors.New("power: no governor configured")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	switch cfg.Governor {
	case GovernorOndemand:
		return &ondemand{cap: cfg.CapWatts}, nil
	case GovernorThermal:
		return &thermal{r: cfg.ThermalR, alpha: cfg.ThermalAlpha, hot: cfg.ThermalHot, cool: cfg.ThermalCool}, nil
	case GovernorFairness:
		return &fairnessGov{cap: cfg.CapWatts}, nil
	}
	return nil, fmt.Errorf("power: unknown governor %q", cfg.Governor)
}

// Action is one recorded DVFS actuation.
type Action struct {
	Core  platform.CoreID `json:"core"`
	Level int             `json:"level"`
	Err   string          `json:"err,omitempty"`
}

// Invocation is one governor invocation's record: the meter reading it
// saw and the actuations it issued.
type Invocation struct {
	T      sim.Time `json:"t"`
	Watts  float64  `json:"watts"`
	Energy float64  `json:"energy"`
	Acts   []Action `json:"acts,omitempty"`
}

// Stats is the decision record of a governed run. It rides RunOutput
// and ReplayOutput, and its Digest is appended to the run digest so
// governor decisions are part of the run's identity.
type Stats struct {
	Governor    string       `json:"governor"`
	Invocations []Invocation `json:"invocations,omitempty"`
}

// Actions returns the total number of DVFS actuations issued.
func (s *Stats) Actions() int {
	n := 0
	for _, inv := range s.Invocations {
		n += len(inv.Acts)
	}
	return n
}

// Digest renders the governor decision stream deterministically, one
// line per invocation. Floats use the same exact 'g' formatting as the
// scheduler's decision digest.
func (s *Stats) Digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "governor %s\n", s.Governor)
	for _, inv := range s.Invocations {
		fmt.Fprintf(&b, "g t=%d watts=%s energy=%s acts=[", int64(inv.T),
			strconv.FormatFloat(inv.Watts, 'g', -1, 64),
			strconv.FormatFloat(inv.Energy, 'g', -1, 64))
		for i, a := range inv.Acts {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d:%d", a.Core, a.Level)
			if a.Err != "" {
				fmt.Fprintf(&b, "!%s", a.Err)
			}
		}
		b.WriteString("]\n")
	}
	return b.String()
}
