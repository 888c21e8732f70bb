package prophet

// Test-only accessors: the Prophet tests inspect the fitted trend,
// its slopes and its changepoints.

// Trend returns the fitted trend evaluated at indices 0..length−1.
// Indices beyond the training range extrapolate with the final slope.
func (m *Model) Trend(length int) []float64 {
	out := make([]float64, length)
	for i := range out {
		out[i] = m.TrendAt(i)
	}
	return out
}

// Slope returns the effective trend slope (per normalized time unit)
// at index i, reflecting all changepoints before it.
func (m *Model) Slope(i int) float64 {
	if !m.fitted {
		panic("prophet: Slope before Fit")
	}
	t := float64(i) / float64(m.n-1)
	k := m.k
	for j, s := range m.changepoints {
		if t > s {
			k += m.deltas[j]
		}
	}
	return k
}

// Changepoints returns the normalized changepoint locations.
func (m *Model) Changepoints() []float64 {
	return append([]float64(nil), m.changepoints...)
}
