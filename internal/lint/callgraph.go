package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// This file builds the module-wide call graph that powers the
// interprocedural rules (privacyflow) and the `fedlint -graph` DOT
// output. The graph is intentionally conservative:
//
//   - direct calls (pkg.Fn(), x.Method() on a concrete receiver)
//     resolve to a single static edge;
//   - calls through an interface method resolve, class-hierarchy
//     style, to every module type implementing the interface
//     (EdgeInterface edges) — this is how fl.Client.Fit reaches
//     core.ClientNode.Fit and the other client implementations;
//   - a function or method referenced as a value without being called
//     (method values, funcs stored in tables) gets an EdgeRef edge
//     from the referencing function, so reachability treats the
//     target as callable.
//
// Calls through non-constant function values and closures stay
// unresolved here; the taint engine treats them conservatively.

// EdgeKind classifies how a call-graph edge was resolved.
type EdgeKind int

// Edge kinds, in increasing order of indirection.
const (
	EdgeStatic EdgeKind = iota
	EdgeInterface
	EdgeRef
)

// String names the edge kind for diagnostics and DOT attributes.
func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeInterface:
		return "interface"
	default:
		return "ref"
	}
}

// CallNode is one function or method declared (with a body) in the
// analyzed packages.
type CallNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Out lists this function's resolved outgoing edges, sorted by
	// call-site position then callee name.
	Out []CallEdge
}

// Name returns the node's fully qualified name
// (types.Func.FullName form).
func (n *CallNode) Name() string { return n.Fn.FullName() }

// CallEdge is one resolved call (or function reference) site.
type CallEdge struct {
	Site   token.Pos
	Kind   EdgeKind
	Callee *CallNode
}

// CallGraph is the module-wide call graph.
type CallGraph struct {
	fset  *token.FileSet
	nodes map[*types.Func]*CallNode
	// sites resolves each call expression to its candidate callees
	// (one for static calls, several for interface dispatch).
	sites map[*ast.CallExpr][]*CallNode
}

// Nodes returns every node sorted by fully qualified name (ties broken
// by declaration position, which cannot collide).
func (g *CallGraph) Nodes() []*CallNode {
	out := make([]*CallNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name() != out[j].Name() {
			return out[i].Name() < out[j].Name()
		}
		return out[i].Decl.Pos() < out[j].Decl.Pos()
	})
	return out
}

// NodeOf returns the node for fn (normalized through Origin), or nil
// when fn was not declared with a body in the analyzed packages.
func (g *CallGraph) NodeOf(fn *types.Func) *CallNode {
	if fn == nil {
		return nil
	}
	return g.nodes[fn.Origin()]
}

// Callees returns the resolved candidate callees of a call site (nil
// for calls into the standard library or through function values).
func (g *CallGraph) Callees(call *ast.CallExpr) []*CallNode {
	return g.sites[call]
}

// Reachable returns the set of nodes reachable from the roots,
// following all edge kinds (references count as potential calls).
func (g *CallGraph) Reachable(roots ...*CallNode) map[*CallNode]bool {
	seen := map[*CallNode]bool{}
	stack := append([]*CallNode(nil), roots...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == nil || seen[n] {
			continue
		}
		seen[n] = true
		for _, e := range n.Out {
			if !seen[e.Callee] {
				stack = append(stack, e.Callee)
			}
		}
	}
	return seen
}

// BuildCallGraph constructs the call graph over the given type-checked
// packages.
func BuildCallGraph(fset *token.FileSet, pkgs []*Package) *CallGraph {
	g := &CallGraph{
		fset:  fset,
		nodes: map[*types.Func]*CallNode{},
		sites: map[*ast.CallExpr][]*CallNode{},
	}

	// Pass 1: one node per declared function/method with a body.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[fn.Origin()] = &CallNode{Fn: fn, Decl: fd, Pkg: pkg}
			}
		}
	}

	// Collect the module's named non-interface types once, for
	// interface-dispatch resolution.
	concrete := moduleNamedTypes(pkgs)

	// Pass 2: resolve the edges of every node.
	for _, n := range g.Nodes() {
		g.resolveEdges(n, concrete)
	}
	return g
}

// moduleNamedTypes returns every named non-interface type declared in
// the packages, sorted by qualified name for deterministic dispatch
// resolution.
func moduleNamedTypes(pkgs []*Package) []*types.Named {
	var out []*types.Named
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			out = append(out, named)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return qualifiedTypeName(out[i]) < qualifiedTypeName(out[j])
	})
	return out
}

// qualifiedTypeName renders "pkgpath.Name" for a named type.
func qualifiedTypeName(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// resolveEdges walks one function body recording call and reference
// edges.
func (g *CallGraph) resolveEdges(n *CallNode, concrete []*types.Named) {
	info := n.Pkg.Info

	// Identify the idents that appear as the operand of a call, so the
	// reference scan below does not double-count them.
	callFunIdents := map[*ast.Ident]bool{}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			callFunIdents[fun] = true
		case *ast.SelectorExpr:
			callFunIdents[fun.Sel] = true
		case *ast.IndexExpr: // generic instantiation f[T](...)
			if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
				callFunIdents[id] = true
			}
		}
		g.resolveCall(n, call, concrete)
		return true
	})

	// Reference edges: module functions mentioned outside call position.
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok || callFunIdents[id] {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if callee := g.NodeOf(fn); callee != nil {
			n.Out = append(n.Out, CallEdge{Site: id.Pos(), Kind: EdgeRef, Callee: callee})
		}
		return true
	})

	sort.Slice(n.Out, func(i, j int) bool {
		if n.Out[i].Site != n.Out[j].Site {
			return n.Out[i].Site < n.Out[j].Site
		}
		return n.Out[i].Callee.Name() < n.Out[j].Callee.Name()
	})
}

// resolveCall resolves one call expression to edges and records the
// site → callees mapping.
func (g *CallGraph) resolveCall(n *CallNode, call *ast.CallExpr, concrete []*types.Named) {
	fn := calleeFunc(n.Pkg.Info, call)
	if fn == nil {
		return // builtin, conversion, or call through a function value
	}
	fn = fn.Origin()

	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		// Interface dispatch: edge to every module implementation.
		callees := implementationsOf(g, fn, sig.Recv().Type(), concrete)
		for _, callee := range callees {
			n.Out = append(n.Out, CallEdge{Site: call.Pos(), Kind: EdgeInterface, Callee: callee})
		}
		g.sites[call] = callees
		return
	}

	if callee := g.NodeOf(fn); callee != nil {
		n.Out = append(n.Out, CallEdge{Site: call.Pos(), Kind: EdgeStatic, Callee: callee})
		g.sites[call] = []*CallNode{callee}
	}
}

// implementationsOf finds the module methods that a call to interface
// method fn may dispatch to: for every named module type implementing
// the interface (by value or pointer receiver), the concrete method of
// the same name.
func implementationsOf(g *CallGraph, fn *types.Func, recv types.Type, concrete []*types.Named) []*CallNode {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*CallNode
	seen := map[*CallNode]bool{}
	for _, named := range concrete {
		var impl types.Type
		switch {
		case types.Implements(named, iface):
			impl = named
		case types.Implements(types.NewPointer(named), iface):
			impl = types.NewPointer(named)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, fn.Pkg(), fn.Name())
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if callee := g.NodeOf(m); callee != nil && !seen[callee] {
			seen[callee] = true
			out = append(out, callee)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// WriteDOT renders the call graph in Graphviz DOT form: nodes and
// edges in deterministic order, interface edges dashed, reference
// edges dotted. Node labels drop the longest common module prefix for
// readability; names are quoted and escaped.
func (g *CallGraph) WriteDOT(w io.Writer) error {
	nodes := g.Nodes()
	if _, err := fmt.Fprintln(w, "digraph fedlint {"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, `  rankdir=LR;`); err != nil {
		return err
	}
	for _, n := range nodes {
		pos := g.fset.Position(n.Decl.Pos())
		if _, err := fmt.Fprintf(w, "  %s [tooltip=%s];\n",
			dotQuote(n.Name()), dotQuote(fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line))); err != nil {
			return err
		}
	}
	for _, n := range nodes {
		for _, e := range n.Out {
			attr := ""
			switch e.Kind {
			case EdgeInterface:
				attr = " [style=dashed]"
			case EdgeRef:
				attr = " [style=dotted]"
			}
			if _, err := fmt.Fprintf(w, "  %s -> %s%s;\n",
				dotQuote(n.Name()), dotQuote(e.Callee.Name()), attr); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// dotQuote renders a DOT double-quoted string.
func dotQuote(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return `"` + s + `"`
}
