package fl

// Test-only accessor: the chaos tests count calls through the fault
// layer.

// Calls reports how many times client i has been called through the
// chaos layer (including faulted calls).
func (t *ChaosTransport) Calls(i int) int {
	c := t.client(i)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}
