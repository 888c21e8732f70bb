// Package deadexport is the root package of the deadexport fixture
// module: its exports are the public API, so the rule does not audit
// them, and the methods of a type it re-exports by alias count as used.
package deadexport

import "fixture/deadexport/lib"

// Counter is re-exported: lib.Counter.Add is public API.
type Counter = lib.Counter

// Total is public API; nothing in the module calls it.
func Total(s float64) float64 {
	var sz lib.Sizer = lib.NewSquare(s)
	return lib.Area([]lib.Shape{lib.NewSquare(s)}) + float64(sz.(lib.Shape).Area()) + float64(lib.Live())
}

// Unused is public API too, and is not flagged.
func Unused() {}
