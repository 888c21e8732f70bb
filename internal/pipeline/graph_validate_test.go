package pipeline

import (
	"errors"
	"fmt"

	"fedforecaster/internal/search"
)

// Test-only validator: the graph tests check every template and every
// hand-built graph against the DAG's type discipline.

// Validate checks the type discipline of the DAG: unique resolvable
// IDs, per-kind arity, edges that only flow series → embed → data →
// regress → merge, kind-specific parameters in range, a single
// estimator sink, and acyclicity.
func (g *Graph) Validate() error {
	if len(g.Nodes) == 0 {
		return errors.New("pipeline: empty graph")
	}
	seen := make(map[string]bool, len(g.Nodes))
	for i := range g.Nodes {
		id := g.Nodes[i].ID
		if id == "" {
			return fmt.Errorf("pipeline: node %d has no ID", i)
		}
		if seen[id] {
			return fmt.Errorf("pipeline: duplicate node ID %q", id)
		}
		seen[id] = true
	}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		arity := 1
		switch n.Kind {
		case NodeSource:
			arity = 0
		case NodeMerge:
			if len(n.Inputs) < 2 {
				return fmt.Errorf("pipeline: merge node %q needs at least 2 inputs", n.ID)
			}
			arity = len(n.Inputs)
		case NodeSmooth, NodeDiff, NodeLagEmbed, NodeExogJoin, NodeRegress:
		default:
			return fmt.Errorf("pipeline: node %q has unknown kind %q", n.ID, n.Kind)
		}
		if len(n.Inputs) != arity {
			return fmt.Errorf("pipeline: node %q (%s) has %d inputs, want %d", n.ID, n.Kind, len(n.Inputs), arity)
		}
		if n.Kind == NodeSmooth && n.Window < 1 {
			return fmt.Errorf("pipeline: smooth node %q window %d < 1", n.ID, n.Window)
		}
		if n.Kind == NodeDiff && n.Order < 1 {
			return fmt.Errorf("pipeline: diff node %q order %d < 1", n.ID, n.Order)
		}
		if n.Kind == NodeRegress && n.Arm > 0 {
			if _, ok := search.ArmConfig(n.Algo); !ok {
				return fmt.Errorf("pipeline: regress node %q names unknown arm %q", n.ID, n.Algo)
			}
		}
		for _, id := range n.Inputs {
			j := g.index(id)
			if j < 0 {
				return fmt.Errorf("pipeline: node %q input %q undefined", n.ID, id)
			}
			in := g.Nodes[j].Kind
			ok := false
			switch n.Kind {
			case NodeSmooth, NodeDiff, NodeLagEmbed:
				ok = in == NodeSource || in == NodeSmooth || in == NodeDiff
			case NodeExogJoin:
				ok = in == NodeLagEmbed
			case NodeRegress:
				ok = in == NodeLagEmbed || in == NodeExogJoin
			case NodeMerge:
				ok = in == NodeRegress
			}
			if !ok {
				return fmt.Errorf("pipeline: node %q (%s) cannot consume %q (%s)", n.ID, n.Kind, id, in)
			}
		}
	}
	consumers := make(map[string]int, len(g.Nodes))
	for i := range g.Nodes {
		for _, id := range g.Nodes[i].Inputs {
			consumers[id]++
		}
	}
	sinks := 0
	for i := range g.Nodes {
		if consumers[g.Nodes[i].ID] == 0 {
			sinks++
		}
	}
	if sinks != 1 {
		return fmt.Errorf("pipeline: graph has %d sinks, want exactly 1", sinks)
	}
	if k := g.Nodes[g.sink()].Kind; k != NodeRegress && k != NodeMerge {
		return fmt.Errorf("pipeline: sink must be a regress or merge node, got %s", k)
	}
	// Acyclicity: resolve nodes whose inputs are resolved until fixpoint.
	done := make(map[string]bool, len(g.Nodes))
	resolved := 0
	for resolved < len(g.Nodes) {
		progress := false
		for i := range g.Nodes {
			if done[g.Nodes[i].ID] {
				continue
			}
			ready := true
			for _, id := range g.Nodes[i].Inputs {
				if !done[id] {
					ready = false
				}
			}
			if ready {
				done[g.Nodes[i].ID] = true
				resolved++
				progress = true
			}
		}
		if !progress {
			return errors.New("pipeline: graph has a cycle")
		}
	}
	return nil
}
