package lint

// Test-only accessor: the call-graph tests look nodes up by name.

// Lookup finds a node by fully qualified name, or nil.
func (g *CallGraph) Lookup(fullName string) *CallNode {
	for _, n := range g.Nodes() {
		if n.Name() == fullName {
			return n
		}
	}
	return nil
}
