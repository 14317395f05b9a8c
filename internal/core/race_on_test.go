//go:build race

package core

// raceEnabled reports whether the race detector is on; it allocates on
// its own, so exact allocation gates skip under it.
const raceEnabled = true
