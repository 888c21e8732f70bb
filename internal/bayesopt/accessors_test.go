package bayesopt

// Test-only accessor: the optimizer tests count recorded observations.

// NumObservations returns the number of recorded evaluations.
func (o *Optimizer) NumObservations() int { return o.n }
