package pipeline

// Test-only accessor: the CV tests and benchmarks count folds.

// Folds reports how many usable evaluation folds the phase holds.
func (gp *GraphPhase) Folds() int { return len(gp.folds) }
