package classical

// Test-only accessor: the AR tests read the fitted coefficients.

// Coefficients returns the fitted AR coefficients φ_1..φ_p.
func (m *AR) Coefficients() []float64 { return append([]float64(nil), m.coef...) }
