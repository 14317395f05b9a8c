package replay

// Hooks for the external tests, which record their logs through the
// harness (which imports this package).
var (
	CheckEventLine = checkEventLine
	HandMadeLines  = handMadeLines
)
