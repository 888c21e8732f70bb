package pipeline

import (
	"fmt"
	"strconv"

	"fedforecaster/internal/search"
)

// NodeKind identifies the typed operator a pipeline-graph node applies.
// Kinds form three layers — series transforms (source, smooth, diff)
// produce a univariate channel, data nodes (lagembed, exogjoin) turn a
// channel into supervised matrices, and estimator nodes (regress,
// merge) turn matrices into predictions — and edges only cross layers
// in that order (TemplateGraph builds nothing else; the tests check
// every template with a validator).
type NodeKind string

// The node taxonomy (see DESIGN.md "Pipeline graphs").
const (
	NodeSource   NodeKind = "source"   // the client's raw target channel
	NodeSmooth   NodeKind = "smooth"   // trailing moving average (Window)
	NodeDiff     NodeKind = "diff"     // order-d differencing, front-padded (Order)
	NodeLagEmbed NodeKind = "lagembed" // the engineer's supervised embedding
	NodeExogJoin NodeKind = "exogjoin" // rejoin exog columns + frozen selection
	NodeRegress  NodeKind = "regress"  // a Table-2 regressor leaf (Arm, Algo)
	NodeMerge    NodeKind = "merge"    // elementwise-mean ensemble of arms
)

// Node is one operator of a pipeline graph. Exactly the fields of its
// kind are meaningful: Window for smooth, Order for diff, Arm/Algo for
// regress. A regress node with Arm 0 evaluates the candidate
// configuration under search; Arm > 0 marks a fixed secondary arm
// whose configuration is search.ArmConfig(Algo) and whose seed is
// decorrelated from the candidate's.
type Node struct {
	ID     string
	Kind   NodeKind
	Window int
	Order  int
	Arm    int
	Algo   string
	Inputs []string
}

// Graph is a pipeline DAG over typed nodes. The zero value is invalid;
// graphs come from StructureOf (the template grammar); tests also
// build and validate them by hand. Graphs are read-only during
// evaluation and may be shared across goroutines.
type Graph struct {
	Nodes []Node
}

// defaultGraph is the degenerate two-stage chain — the paper's fixed
// engineer→model pipeline — shared so the common path allocates no
// graph per candidate.
var defaultGraph = &Graph{Nodes: []Node{
	{ID: "src", Kind: NodeSource},
	{ID: "embed", Kind: NodeLagEmbed, Inputs: []string{"src"}},
	{ID: "arm0", Kind: NodeRegress, Inputs: []string{"embed"}},
}}

// StructureOf extracts the pipeline graph a configuration encodes via
// its structure categoricals (search.WithStructure). A configuration
// without structure keys — or with every choice "none" — maps to the
// shared degenerate chain, so chain-only search never pays for graphs.
func StructureOf(cfg search.Config) (*Graph, error) {
	pre := cfg.Cats[search.StructPre]
	arm2 := cfg.Cats[search.StructArm2]
	if (pre == "" || pre == search.StructNone) && (arm2 == "" || arm2 == search.StructNone) {
		return defaultGraph, nil
	}
	return TemplateGraph(pre, arm2)
}

// TemplateGraph instantiates the bounded template grammar: an optional
// pre-transform on the target channel (rebuilding the embedding and
// rejoining exogenous columns), the candidate regressor, and an
// optional fixed second arm merged by elementwise mean.
func TemplateGraph(pre, arm2 string) (*Graph, error) {
	nodes := make([]Node, 0, 7)
	nodes = append(nodes, Node{ID: "src", Kind: NodeSource})
	embedIn := "src"
	switch pre {
	case "", search.StructNone:
	case "smooth3":
		nodes = append(nodes, Node{ID: "pre", Kind: NodeSmooth, Window: 3, Inputs: []string{"src"}})
		embedIn = "pre"
	case "smooth5":
		nodes = append(nodes, Node{ID: "pre", Kind: NodeSmooth, Window: 5, Inputs: []string{"src"}})
		embedIn = "pre"
	case "diff1":
		nodes = append(nodes, Node{ID: "pre", Kind: NodeDiff, Order: 1, Inputs: []string{"src"}})
		embedIn = "pre"
	default:
		return nil, fmt.Errorf("pipeline: unknown pre-transform %q", pre)
	}
	nodes = append(nodes, Node{ID: "embed", Kind: NodeLagEmbed, Inputs: []string{embedIn}})
	dataID := "embed"
	if embedIn != "src" {
		// A transformed branch rebuilds its own embedding without the
		// exogenous columns; the join node restores them (and the frozen
		// feature selection) so every arm sees the full schema.
		nodes = append(nodes, Node{ID: "exog", Kind: NodeExogJoin, Inputs: []string{"embed"}})
		dataID = "exog"
	}
	nodes = append(nodes, Node{ID: "arm0", Kind: NodeRegress, Inputs: []string{dataID}})
	switch arm2 {
	case "", search.StructNone:
	default:
		if _, ok := search.ArmConfig(arm2); !ok {
			return nil, fmt.Errorf("pipeline: unknown second arm %q", arm2)
		}
		nodes = append(nodes,
			Node{ID: "arm1", Kind: NodeRegress, Arm: 1, Algo: arm2, Inputs: []string{dataID}},
			Node{ID: "out", Kind: NodeMerge, Inputs: []string{"arm0", "arm1"}})
	}
	return &Graph{Nodes: nodes}, nil
}

// index returns the position of the named node, or -1.
func (g *Graph) index(id string) int {
	for i := range g.Nodes {
		if g.Nodes[i].ID == id {
			return i
		}
	}
	return -1
}

// sink returns the first node no other node consumes (the template
// grammar makes it unique).
func (g *Graph) sink() int {
	for i := range g.Nodes {
		used := false
		for j := range g.Nodes {
			for _, id := range g.Nodes[j].Inputs {
				if id == g.Nodes[i].ID {
					used = true
				}
			}
		}
		if !used {
			return i
		}
	}
	return -1
}

// regressArms returns the regressor leaves in merge-input order (or
// the single leaf): the deterministic branch order used for parallel
// evaluation and for the merge.
func (g *Graph) regressArms() []int {
	if s := g.sink(); s >= 0 && g.Nodes[s].Kind == NodeMerge {
		arms := make([]int, len(g.Nodes[s].Inputs))
		for j, id := range g.Nodes[s].Inputs {
			arms[j] = g.index(id)
		}
		return arms
	}
	for i := range g.Nodes {
		if g.Nodes[i].Kind == NodeRegress {
			//lint:allow hotalloc a single 1-element index slice per candidate evaluation, negligible next to the fit
			return []int{i}
		}
	}
	return nil
}

// specBase is the spec of the degenerate embedding — the one the
// executor serves from the eagerly built base matrices.
const specBase = "embed(src)"

// specOf renders the canonical specification of a node's output: the
// per-fold cache key for data nodes and the human-readable shape of
// estimator nodes.
func (g *Graph) specOf(idx int) string {
	n := &g.Nodes[idx]
	switch n.Kind {
	case NodeSource:
		return "src"
	case NodeSmooth:
		return "smooth" + strconv.Itoa(n.Window) + "(" + g.specOf(g.index(n.Inputs[0])) + ")"
	case NodeDiff:
		return "diff" + strconv.Itoa(n.Order) + "(" + g.specOf(g.index(n.Inputs[0])) + ")"
	case NodeLagEmbed:
		return "embed(" + g.specOf(g.index(n.Inputs[0])) + ")"
	case NodeExogJoin:
		return "exog(" + g.specOf(g.index(n.Inputs[0])) + ")"
	case NodeRegress:
		if n.Arm > 0 {
			return n.Algo + "(" + g.specOf(g.index(n.Inputs[0])) + ")"
		}
		return "cand(" + g.specOf(g.index(n.Inputs[0])) + ")"
	case NodeMerge:
		s := "mean("
		for j, id := range n.Inputs {
			if j > 0 {
				s += ","
			}
			s += g.specOf(g.index(id))
		}
		return s + ")"
	}
	return "?"
}

// Spec renders the whole graph canonically (the sink's spec).
func (g *Graph) Spec() string {
	s := g.sink()
	if s < 0 {
		return "?"
	}
	return g.specOf(s)
}
