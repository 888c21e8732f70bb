// Package harness belongs to a module nested inside the fixture
// module, as a benchmark harness with its own go.mod would: the loader
// skips it, so its call does not keep lib.BenchOnly alive.
package harness

import "fixture/deadexport/lib"

// Run calls the export only this nested module uses.
func Run() { lib.BenchOnly() }
