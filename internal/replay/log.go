// Package replay is the record/replay platform backend. A Recorder
// wraps any other platform and writes every counter sample, quantum
// boundary and affinity action to a compact JSON-lines log; a Player
// re-implements the platform interface from such a log, with no machine
// model behind it.
//
// Replay is verifying, not merely reproducing: the Player checks each
// mutating call (Place, Migrate, Swap) and each Sample against the
// recorded stream, in order, and reports a DivergenceError on the first
// mismatch. A recorded run therefore doubles as a regression test for
// scheduler decision logic — if the policy code changes behaviour, the
// replay fails at the first divergent decision instead of silently
// producing different numbers.
//
// Read-only platform calls (Topology, MemCapacity, Threads, Alive,
// CoreOf, ProcessOf) are served from replayed state and stay idempotent;
// only Sample and the affinity calls consume log events.
package replay

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"dike/internal/platform"
	"dike/internal/sim"
)

// Version identifies the log format. Bumped on incompatible changes;
// the Player rejects logs from other versions.
const Version = 1

// jfloat is a float64 that survives a JSON round trip bit-identically.
// encoding/json rejects NaN and the infinities outright, and fault
// injection produces exactly such readings, so every float in the log
// goes through this type: finite values are written in Go's shortest
// round-trip form and the three non-finite values as quoted strings.
type jfloat float64

func (f jfloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

func (f *jfloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"NaN"`:
		*f = jfloat(math.NaN())
		return nil
	case `"+Inf"`:
		*f = jfloat(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = jfloat(math.Inf(-1))
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("replay: bad float %q", b)
	}
	*f = jfloat(v)
	return nil
}

// wireCore serialises one logical core of the topology. Socket is
// omitted when zero, so logs of single-socket machines (and all logs
// written before the topology-driven machine model) stay byte-compatible.
type wireCore struct {
	ID       platform.CoreID   `json:"id"`
	Kind     platform.CoreKind `json:"kind"`
	Speed    jfloat            `json:"speed"`
	Physical int               `json:"phys"`
	Socket   int               `json:"sock,omitempty"`
}

// wireThread serialises one registered thread: its id and owning
// process (the only OS-visible identity a scheduler may read).
type wireThread struct {
	ID   platform.ThreadID `json:"id"`
	Proc int               `json:"proc"`
}

// Meta is what the recording caller knows and the log must preserve to
// rebuild the policy on replay: the policy name, its seed, and an
// opaque parameter blob (the backend does not interpret policy
// configuration — layering ends at the platform seam).
type Meta struct {
	// Policy is the harness-level policy name the run was recorded under.
	Policy string
	// Seed is the seed the policy was constructed with.
	Seed uint64
	// PolicyConfig is an opaque, policy-defined parameter blob (nil when
	// the policy has none beyond the seed).
	PolicyConfig json.RawMessage
	// Static is the fixed thread→core assignment for static policies,
	// which is derived from knowledge (workload ground truth) that does
	// not exist at replay time and so must be persisted.
	Static map[platform.ThreadID]platform.CoreID
	// Power is the governed run's opaque governor setup blob (nil for
	// ungoverned runs). The harness uses it to rebuild the identical
	// governor at replay time; the backend does not interpret it.
	Power json.RawMessage
}

// header is the first line of every log.
type header struct {
	Version     int          `json:"version"`
	Policy      string       `json:"policy"`
	Seed        uint64       `json:"seed"`
	MemCapacity jfloat       `json:"memcap"`
	Cores       []wireCore   `json:"cores"`
	Threads     []wireThread `json:"threads"`
	// KindNames is the topology's core-type name table (index = CoreKind).
	// Omitted for legacy logs, whose kinds carry the default fast/slow names.
	KindNames    []string                              `json:"kinds,omitempty"`
	PolicyConfig json.RawMessage                       `json:"policyConfig,omitempty"`
	Static       map[platform.ThreadID]platform.CoreID `json:"static,omitempty"`
	// Power is the governor setup of a governed run. Trailing and
	// omitted when absent, so ungoverned logs stay byte-compatible.
	Power json.RawMessage `json:"power,omitempty"`
}

// Event kinds. One JSON object per line, discriminated by "k".
const (
	evQuantum = "q" // quantum boundary: Now, Alive
	evSample  = "s" // counter sample: Now, S
	evPlace   = "p" // initial placement: A, Core, Err
	evMigrate = "m" // migration: A, Core, Now, PostA, Err
	evSwap    = "w" // swap: A, B, Now, PostA, PostB, Err
	evPower   = "e" // energy-meter reading: W, E (Now is the last boundary)
	evDVFS    = "d" // DVFS actuation: Core, L, Err
)

// event is one recorded platform interaction. Field use depends on the
// kind; unused fields stay at their zero values. Scalar fields carry no
// omitempty — thread 0 and core 0 are legitimate values. (The power
// fields are the exception: they are omitted when empty so the five
// original event kinds keep their exact historical encoding.)
type event struct {
	K     string              `json:"k"`
	Now   sim.Time            `json:"t"`
	Alive []platform.ThreadID `json:"alive,omitempty"`
	S     *wireSample         `json:"s,omitempty"`
	A     platform.ThreadID   `json:"a"`
	B     platform.ThreadID   `json:"b"`
	Core  platform.CoreID     `json:"c"`
	PostA platform.CoreID     `json:"pa"`
	PostB platform.CoreID     `json:"pb"`
	Err   string              `json:"err,omitempty"`
	// Power events: per-socket watts and cumulative joules of an
	// energy-meter reading, and the level of a DVFS actuation.
	W []jfloat `json:"pw,omitempty"`
	E jfloat   `json:"pe,omitempty"`
	L int      `json:"l,omitempty"`

	// sample is S as the Player's scanner decodes it, straight into the
	// platform type. The Recorder writes S; encoding/json ignores this.
	sample *platform.Sample
}

// wireSample serialises a platform.Sample. Map keys are integers, which
// encoding/json writes as sorted strings — log bytes are deterministic.
// The Player reads it back with the scanner (scan.go), not with
// encoding/json.
type wireSample struct {
	Interval jfloat                                `json:"iv"`
	Threads  map[platform.ThreadID]wireThreadDelta `json:"th,omitempty"`
	Cores    []wireCoreDelta                       `json:"co,omitempty"`
	Instr    map[platform.ThreadID]jfloat          `json:"in,omitempty"`
}

type wireThreadDelta struct {
	Interval     jfloat `json:"iv"`
	Work         jfloat `json:"w"`
	Instructions jfloat `json:"in"`
	Accesses     jfloat `json:"ac"`
	Misses       jfloat `json:"mi"`
	Migrations   int    `json:"mg"`
}

type wireCoreDelta struct {
	Interval     jfloat `json:"iv"`
	ServedMisses jfloat `json:"sm"`
}

// toWire converts a live sample for serialisation.
func toWire(s *platform.Sample) *wireSample {
	w := &wireSample{Interval: jfloat(s.Interval)}
	if len(s.Threads) > 0 {
		w.Threads = make(map[platform.ThreadID]wireThreadDelta, len(s.Threads))
		for id, d := range s.Threads {
			w.Threads[id] = wireThreadDelta{
				Interval:     jfloat(d.Interval),
				Work:         jfloat(d.Work),
				Instructions: jfloat(d.Instructions),
				Accesses:     jfloat(d.Accesses),
				Misses:       jfloat(d.Misses),
				Migrations:   d.Migrations,
			}
		}
	}
	if len(s.Cores) > 0 {
		w.Cores = make([]wireCoreDelta, len(s.Cores))
		for i, d := range s.Cores {
			w.Cores[i] = wireCoreDelta{Interval: jfloat(d.Interval), ServedMisses: jfloat(d.ServedMisses)}
		}
	}
	if len(s.Instr) > 0 {
		w.Instr = make(map[platform.ThreadID]jfloat, len(s.Instr))
		for id, v := range s.Instr {
			w.Instr[id] = jfloat(v)
		}
	}
	return w
}
