// Package fault is a deterministic, seedable fault injector for the
// simulated machine. It implements machine.Disruptor and perturbs the
// platform the way production hardware actually misbehaves: performance
// counter reads are lost or return garbage, fast cores thermally
// throttle down to slow-core rates, cores drop offline and recover,
// affinity changes are silently lost, and threads stall or die mid-run.
//
// Every decision is a pure hash of (seed, fault class, subject, time
// window), not a draw from a sequential stream, so the fault schedule is
// independent of query order and identical across runs with the same
// seed — the property that makes fault experiments reproducible and lets
// two policies be compared under the *same* hostile platform.
package fault

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"dike/internal/counters"
	"dike/internal/machine"
	"dike/internal/platform"
	"dike/internal/sim"
)

// Class is a bitmask of fault classes to inject.
type Class uint

const (
	// Dropout loses individual per-thread counter samples.
	Dropout Class = 1 << iota
	// Corrupt replaces counter readings with NaN/Inf/negative/saturated
	// values.
	Corrupt
	// Throttle runs cores at a reduced rate for a window (thermal
	// throttling: a fast core temporarily behaves like a slow one).
	Throttle
	// Offline takes a core fully offline for a window; occupants make no
	// progress until it recovers or they are moved.
	Offline
	// MigrationFail silently drops affinity changes.
	MigrationFail
	// Stall deschedules a thread for part of a window.
	Stall
	// Crash terminates a thread mid-run with its work incomplete.
	Crash

	// All enables every fault class.
	All = Dropout | Corrupt | Throttle | Offline | MigrationFail | Stall | Crash
)

// classNames maps flag-friendly names to classes, in presentation order.
var classNames = []struct {
	name string
	c    Class
}{
	{"dropout", Dropout},
	{"corrupt", Corrupt},
	{"throttle", Throttle},
	{"offline", Offline},
	{"migfail", MigrationFail},
	{"stall", Stall},
	{"crash", Crash},
}

// ParseClasses parses a comma-separated class list ("dropout,corrupt"),
// or "all"/"none". An empty string means none.
func ParseClasses(s string) (Class, error) {
	s = strings.TrimSpace(s)
	switch s {
	case "", "none":
		return 0, nil
	case "all":
		return All, nil
	}
	var out Class
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		found := false
		for _, cn := range classNames {
			if cn.name == tok {
				out |= cn.c
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("fault: unknown fault class %q (have %s)", tok, ClassNames())
		}
	}
	return out, nil
}

// ClassNames returns the accepted class names, comma-separated.
func ClassNames() string {
	names := make([]string, len(classNames))
	for i, cn := range classNames {
		names[i] = cn.name
	}
	return strings.Join(names, ",")
}

// String renders the enabled classes as a ParseClasses-compatible list.
func (c Class) String() string {
	if c == 0 {
		return "none"
	}
	if c == All {
		return "all"
	}
	var names []string
	for _, cn := range classNames {
		if c&cn.c != 0 {
			names = append(names, cn.name)
		}
	}
	return strings.Join(names, ",")
}

// Config parameterises an Injector. Per-class probabilities are base
// rates at Rate = 1; the Rate multiplier scales them all together, which
// is how the fault-sweep experiments turn one knob. The zero value is
// invalid; start from DefaultConfig.
type Config struct {
	// Seed drives every injection decision. Two injectors with equal
	// configs produce identical fault schedules.
	Seed uint64
	// Classes selects which fault classes fire.
	Classes Class
	// Rate scales all per-class probabilities (1 = base rates).
	Rate float64

	// DropoutP / CorruptP are per thread-sample probabilities.
	DropoutP float64
	CorruptP float64
	// ThrottleP / OfflineP are per core-window probabilities.
	ThrottleP float64
	// ThrottleFactor is the speed multiplier while throttled. The
	// default ≈ the paper's slow/fast frequency ratio, so a throttled
	// fast core runs at slow-core rate.
	ThrottleFactor float64
	OfflineP       float64
	// MigFailP is the per-migration probability of a silent failure.
	MigFailP float64
	// StallP / CrashP are per thread-window probabilities; StallFrac is
	// the fraction of the window a stalled thread is descheduled.
	StallP    float64
	StallFrac float64
	CrashP    float64
	// Window is the fault scheduling granularity, ms: throttle, offline,
	// stall and crash decisions are made once per subject per window.
	Window sim.Time
}

// DefaultConfig returns all classes enabled at moderate base rates: per
// quantum a few percent of samples are lost or garbage, and over a
// multi-minute run each core sees a handful of throttle/offline windows
// and a few swaps silently fail.
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		Classes:        All,
		Rate:           1,
		DropoutP:       0.05,
		CorruptP:       0.02,
		ThrottleP:      0.06,
		ThrottleFactor: 0.52, // ≈ 1.21/2.33, the Table I slow/fast ratio
		OfflineP:       0.02,
		MigFailP:       0.05,
		StallP:         0.02,
		StallFrac:      0.5,
		CrashP:         0.0005,
		Window:         1000,
	}
}

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	// Each check negates the valid range, so NaN fails it too.
	switch {
	case !(c.Rate >= 0 && c.Rate <= math.MaxFloat64):
		return errors.New("fault: Rate must be finite and >= 0")
	case !(c.ThrottleFactor > 0 && c.ThrottleFactor < 1):
		return errors.New("fault: ThrottleFactor must be in (0,1)")
	case !(c.StallFrac > 0 && c.StallFrac <= 1):
		return errors.New("fault: StallFrac must be in (0,1]")
	case c.Window <= 0:
		return errors.New("fault: Window must be positive")
	}
	for _, p := range [...]float64{c.DropoutP, c.CorruptP, c.ThrottleP, c.OfflineP, c.MigFailP, c.StallP, c.CrashP} {
		if !(p >= 0 && p <= 1) {
			return errors.New("fault: class probabilities must be in [0,1]")
		}
	}
	return nil
}

// Stats counts injected events by class. Dropouts, corruptions and
// migration failures count individual events; throttles, offlines,
// stalls and crashes count distinct (subject, window) episodes.
type Stats struct {
	Dropouts          int
	Corruptions       int
	Throttles         int
	Offlines          int
	MigrationFailures int
	Stalls            int
	Crashes           int
}

// Total returns the sum over all classes.
func (s Stats) Total() int {
	return s.Dropouts + s.Corruptions + s.Throttles + s.Offlines +
		s.MigrationFailures + s.Stalls + s.Crashes
}

// String renders the non-zero counts compactly.
func (s Stats) String() string {
	parts := []string{}
	add := func(name string, n int) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s %d", name, n))
		}
	}
	add("dropout", s.Dropouts)
	add("corrupt", s.Corruptions)
	add("throttle", s.Throttles)
	add("offline", s.Offlines)
	add("migfail", s.MigrationFailures)
	add("stall", s.Stalls)
	add("crash", s.Crashes)
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ", ")
}

// Per-class hash salts; arbitrary odd constants.
const (
	saltDropout  = 0xA5A5A5A5A5A5A5A5
	saltCorrupt  = 0x5A5A5A5A5A5A5A5B
	saltThrottle = 0xC3C3C3C3C3C3C3C3
	saltOffline  = 0x3C3C3C3C3C3C3C3D
	saltMigFail  = 0x9696969696969697
	saltStall    = 0x6969696969696969
	saltCrash    = 0xF0F0F0F0F0F0F0F1
)

// episodeKey identifies one window-scoped fault episode for stats
// deduplication (window decisions are queried every tick).
type episodeKey struct {
	salt    uint64
	subject uint64
	window  uint64
}

// Injector implements machine.Disruptor deterministically. Not safe for
// concurrent use; attach one injector per machine.
type Injector struct {
	cfg   Config
	stats Stats
	seen  map[episodeKey]bool
}

// NewInjector builds an injector from cfg.
func NewInjector(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg, seen: make(map[episodeKey]bool)}, nil
}

// Stats returns the counts of events injected so far.
func (in *Injector) Stats() Stats { return in.stats }

// mix64 is the SplitMix64 finalizer (see sim.RNG).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// hash derives 64 decision bits from (seed, salt, subject, epoch).
func (in *Injector) hash(salt, subject, epoch uint64) uint64 {
	h := mix64(in.cfg.Seed + salt*0x9E3779B97F4A7C15)
	h = mix64(h ^ (subject+1)*0xD1B54A32D192ED03)
	return mix64(h ^ (epoch+1)*0x8CB92BA72F3D8DD7)
}

// roll returns a uniform [0,1) decision value for the tuple.
func (in *Injector) roll(salt, subject, epoch uint64) float64 {
	return float64(in.hash(salt, subject, epoch)>>11) / (1 << 53)
}

// p returns the effective probability for a base rate, clamped to [0,1].
func (in *Injector) p(base float64) float64 {
	return math.Min(base*in.cfg.Rate, 1)
}

// window returns now's fault window index.
func (in *Injector) window(now sim.Time) uint64 {
	if now < 0 {
		return 0
	}
	return uint64(now / in.cfg.Window)
}

// countEpisode increments *n once per (salt, subject, window).
func (in *Injector) countEpisode(salt, subject, w uint64, n *int) {
	k := episodeKey{salt, subject, w}
	if !in.seen[k] {
		in.seen[k] = true
		*n++
	}
}

// CoreFactor implements machine.Disruptor: offline wins over throttle.
func (in *Injector) CoreFactor(c platform.CoreID, now sim.Time) float64 {
	w := in.window(now)
	if in.cfg.Classes&Offline != 0 && in.roll(saltOffline, uint64(c), w) < in.p(in.cfg.OfflineP) {
		in.countEpisode(saltOffline, uint64(c), w, &in.stats.Offlines)
		return 0
	}
	if in.cfg.Classes&Throttle != 0 && in.roll(saltThrottle, uint64(c), w) < in.p(in.cfg.ThrottleP) {
		in.countEpisode(saltThrottle, uint64(c), w, &in.stats.Throttles)
		return in.cfg.ThrottleFactor
	}
	return 1
}

// MigrationFails implements machine.Disruptor. The decision is keyed on
// (thread, request time) so retries in later quanta roll fresh dice.
func (in *Injector) MigrationFails(id platform.ThreadID, to platform.CoreID, now sim.Time) bool {
	if in.cfg.Classes&MigrationFail == 0 {
		return false
	}
	if in.roll(saltMigFail, uint64(id), uint64(now)) < in.p(in.cfg.MigFailP) {
		in.stats.MigrationFailures++
		return true
	}
	return false
}

// ThreadFault implements machine.Disruptor. Stall and crash decisions
// are per (thread, window): a stalled thread is descheduled for the
// first StallFrac of the window; a crashed thread dies in the window in
// which its number comes up.
func (in *Injector) ThreadFault(id platform.ThreadID, now sim.Time) (stalled, crashed bool) {
	w := in.window(now)
	if in.cfg.Classes&Crash != 0 && in.roll(saltCrash, uint64(id), w) < in.p(in.cfg.CrashP) {
		in.countEpisode(saltCrash, uint64(id), w, &in.stats.Crashes)
		return false, true
	}
	if in.cfg.Classes&Stall != 0 && in.roll(saltStall, uint64(id), w) < in.p(in.cfg.StallP) {
		windowStart := sim.Time(w) * in.cfg.Window
		if float64(now-windowStart) < in.cfg.StallFrac*float64(in.cfg.Window) {
			in.countEpisode(saltStall, uint64(id), w, &in.stats.Stalls)
			return true, false
		}
	}
	return false, false
}

// PerturbDelta implements machine.Disruptor: per-sample dropout and
// corruption. Corruption cycles through the four pathologies a real PMU
// read exhibits: NaN, +Inf, a negative delta (counter reset race), and a
// saturated reading far beyond physical capacity.
func (in *Injector) PerturbDelta(id platform.ThreadID, now sim.Time, d counters.ThreadDelta) (counters.ThreadDelta, bool) {
	if in.cfg.Classes&Dropout != 0 && in.roll(saltDropout, uint64(id), uint64(now)) < in.p(in.cfg.DropoutP) {
		in.stats.Dropouts++
		return d, false
	}
	if in.cfg.Classes&Corrupt != 0 {
		h := in.hash(saltCorrupt, uint64(id), uint64(now))
		if float64(h>>11)/(1<<53) < in.p(in.cfg.CorruptP) {
			in.stats.Corruptions++
			switch h % 4 {
			case 0:
				d.Misses = math.NaN()
			case 1:
				d.Misses = math.Inf(1)
			case 2:
				d.Misses = -d.Misses - 1
			default:
				// Saturated: orders of magnitude beyond any controller.
				d.Misses = 1e12
				d.Accesses = 1e12
			}
			return d, true
		}
	}
	return d, true
}

var _ machine.Disruptor = (*Injector)(nil)
