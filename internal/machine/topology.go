// Package machine models the heterogeneous multicore the paper evaluates
// on (Table I): two pools of physical cores running at different
// frequencies, two SMT lanes per physical core, a shared last-level cache
// and a single memory controller whose bandwidth all threads contend for.
//
// The model is a deterministic, millisecond-granularity performance
// model, not a cycle-accurate simulator: each tick it solves a fixed
// point between per-thread progress and memory-controller latency, which
// is enough to reproduce the contention phenomenology the scheduler
// reacts to — differential slowdown of memory- vs compute-intensive
// threads, core-type speed asymmetry, SMT interference and migration
// cost.
//
// The machine is the reference implementation of platform.Platform:
// schedulers drive it exclusively through that seam. The identifier and
// topology types live in internal/platform (they are part of the seam);
// the aliases below keep this package's historical names working.
package machine

import "dike/internal/platform"

// CoreID identifies a logical core (an SMT lane).
type CoreID = platform.CoreID

// ThreadID identifies a thread.
type ThreadID = platform.ThreadID

// CoreKind distinguishes the two frequency domains of the heterogeneous
// machine.
type CoreKind = platform.CoreKind

const (
	// FastCore is a core in the TurboBoost socket (paper: 2.33 GHz pool).
	FastCore = platform.FastCore
	// SlowCore is a core in the frequency-capped socket (paper: 1.21 GHz pool).
	SlowCore = platform.SlowCore
)

// Core describes one logical core.
type Core = platform.Core

// Topology is the set of logical cores of a machine.
type Topology = platform.Topology
