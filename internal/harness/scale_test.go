package harness

import "testing"

// TestScaleGridShape pins the sweep grid: the full grid reaches 1024
// logical cores across 8 sockets and 4 core types, quick mode stays at
// or below 128, and every machine config validates.
func TestScaleGridShape(t *testing.T) {
	full := scaleGrid(false)
	maxLogical, maxSockets, maxTypes := 0, 0, 0
	for _, p := range full {
		if err := p.cfg.Validate(); err != nil {
			t.Errorf("point %s config invalid: %v", p.name, err)
		}
		if got := p.cfg.Spec.TotalLogical(); got != p.logical {
			t.Errorf("point %s declares %d logical cores, spec has %d", p.name, p.logical, got)
		}
		if p.logical > maxLogical {
			maxLogical = p.logical
		}
		if p.sockets > maxSockets {
			maxSockets = p.sockets
		}
		if p.coreTypes > maxTypes {
			maxTypes = p.coreTypes
		}
	}
	if maxLogical != 1024 || maxSockets != 8 || maxTypes != 4 {
		t.Errorf("full grid tops out at %d cores / %d sockets / %d types, want 1024/8/4",
			maxLogical, maxSockets, maxTypes)
	}
	for _, p := range scaleGrid(true) {
		if p.logical > 128 {
			t.Errorf("quick grid includes %s (%d logical cores)", p.name, p.logical)
		}
	}
}
