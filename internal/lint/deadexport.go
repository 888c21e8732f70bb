package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeadExport flags exported production code that only tests reach: an
// exported package-level func, type, var or const, or an exported
// method (of a concrete type or an interface), that no non-test code in
// the module refers to anywhere but in its own declaration. The loader
// excludes _test.go files, so a reference from a test never counts.
//
// A reference is a use of the declared object (a call, a method value,
// a type in a signature, an entry in a package-level table) outside its
// declaration; for a type, its own methods do not count either. A
// concrete method also counts as referenced when the shared call graph
// has an interface edge into it from another function, and when its
// receiver type implements an interface with a method of its name: one
// declared in the module (whose method the rule audits in its place),
// one of a standard-library package the module imports (fmt calls
// String, sort calls Len/Less/Swap, net/http calls ServeHTTP), or the
// universe error.
//
// Package main and the golden fixtures under internal/lint/testdata
// (which the module loader never loads) are out of scope. So is the
// module's root package: it is the public API, and the exported methods
// of a type it re-exports by alias count as referenced. The reference
// count needs every package of the module, so the rule stays silent
// unless the run covers everything LoadModule loaded: a subset run
// (fedlint ./internal/obs) or a package loaded on its own (LoadDir)
// reports nothing.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc: "exported funcs, types, vars, consts and methods must have a non-test " +
		"reference in the module outside their own declaration",
	RunModule: runDeadExport,
}

// deadCandidate is one exported declaration the rule audits.
type deadCandidate struct {
	obj  types.Object
	kind string // "func", "method", "type", "var", "const"
	// abstract marks an interface method.
	abstract bool
	// own lists the source ranges that make up the declaration: a
	// reference inside one of them does not count.
	own []posRange
}

func (c *deadCandidate) inOwn(pos token.Pos) bool {
	for _, r := range c.own {
		if r.lo <= pos && pos < r.hi {
			return true
		}
	}
	return false
}

func runDeadExport(p *ModulePass) {
	if !coversModule(p.Pkgs) {
		return
	}
	var cands []*deadCandidate
	byObj := map[types.Object]*deadCandidate{}
	used := map[types.Object]bool{}
	for _, pkg := range p.Pkgs {
		if pkg.Types == nil || pkg.Types.Name() == "main" {
			continue
		}
		if pkg.ImportPath == p.Config.ModulePath {
			markAliasedMethods(pkg, used)
			continue
		}
		for _, c := range exportedDecls(pkg) {
			cands = append(cands, c)
			byObj[c.obj] = c
		}
	}

	for _, pkg := range p.Pkgs {
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if c := byObj[obj]; c != nil && !c.inOwn(id.Pos()) {
				used[obj] = true
			}
		}
	}
	for _, n := range p.graph().Nodes() {
		for _, e := range n.Out {
			if e.Kind != EdgeInterface {
				continue
			}
			if c := byObj[e.Callee.Fn]; c != nil && !c.inOwn(e.Site) {
				used[c.obj] = true
			}
		}
	}

	ifaces := interfacesInScope(p.Pkgs)
	for _, c := range cands {
		if used[c.obj] || (c.kind == "method" && !c.abstract && implementsMethodOf(c.obj.(*types.Func), ifaces)) {
			continue
		}
		p.Reportf(c.obj.Pos(), "exported %s %s has no non-test reference in the module; delete it or mark it //lint:allow deadexport <reason>",
			c.kind, deadName(c.obj))
	}
}

// coversModule reports whether pkgs is exactly the set LoadModule
// loaded: only then are the references the rule sees all there are.
func coversModule(pkgs []*Package) bool {
	if len(pkgs) == 0 || pkgs[0].module == nil || len(pkgs[0].module) != len(pkgs) {
		return false
	}
	in := make(map[*Package]bool, len(pkgs))
	for _, pkg := range pkgs {
		in[pkg] = true
	}
	for _, pkg := range pkgs[0].module {
		if !in[pkg] {
			return false
		}
	}
	return true
}

// exportedDecls lists pkg's exported package-level declarations and
// exported methods, in source order.
func exportedDecls(pkg *Package) []*deadCandidate {
	var out []*deadCandidate
	typeCands := map[types.Object]*deadCandidate{}
	var methods []*ast.FuncDecl
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					methods = append(methods, d)
				}
				if !d.Name.IsExported() {
					continue
				}
				kind := "func"
				if d.Recv != nil {
					kind = "method"
				}
				if obj := pkg.Info.Defs[d.Name]; obj != nil {
					out = append(out, &deadCandidate{obj: obj, kind: kind, own: []posRange{{d.Pos(), d.End()}}})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if obj := pkg.Info.Defs[s.Name]; obj != nil && s.Name.IsExported() {
							c := &deadCandidate{obj: obj, kind: "type", own: []posRange{{s.Pos(), s.End()}}}
							out = append(out, c)
							typeCands[obj] = c
						}
						it, ok := s.Type.(*ast.InterfaceType)
						if !ok {
							continue
						}
						for _, f := range it.Methods.List {
							for _, name := range f.Names {
								if obj := pkg.Info.Defs[name]; obj != nil && name.IsExported() {
									out = append(out, &deadCandidate{obj: obj, kind: "method", abstract: true, own: []posRange{{s.Pos(), s.End()}}})
								}
							}
						}
					case *ast.ValueSpec:
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
						}
						for _, name := range s.Names {
							if obj := pkg.Info.Defs[name]; obj != nil && name.IsExported() {
								out = append(out, &deadCandidate{obj: obj, kind: kind, own: []posRange{{s.Pos(), s.End()}}})
							}
						}
					}
				}
			}
		}
	}
	// A type's methods belong to its declaration: a receiver or a
	// self-reference in a method body does not keep the type alive.
	for _, m := range methods {
		fn, ok := pkg.Info.Defs[m.Name].(*types.Func)
		if !ok {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			if c := typeCands[named.Obj()]; c != nil {
				c.own = append(c.own, posRange{m.Pos(), m.End()})
			}
		}
	}
	return out
}

// markAliasedMethods marks as used the exported methods of every
// module type the root package re-exports by alias: they are public API.
func markAliasedMethods(root *Package, used map[types.Object]bool) {
	scope := root.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() || !tn.Exported() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				used[m] = true
			}
		}
	}
}

// interfacesInScope collects the package-level interfaces with methods
// that the run declares or imports, plus the universe error, in a
// deterministic order (run order, then import order, then name).
func interfacesInScope(pkgs []*Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	add := func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				out = append(out, iface)
			}
		}
	}
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		add(pkg.Types)
		for _, imp := range pkg.Types.Imports() {
			add(imp)
		}
	}
	return out
}

// implementsMethodOf reports whether m's receiver type (by value or
// pointer) implements one of ifaces that has a method named like m.
func implementsMethodOf(m *types.Func, ifaces []*types.Interface) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, iface := range ifaces {
		has := false
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == m.Name() {
				has = true
				break
			}
		}
		if has && (types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
			return true
		}
	}
	return false
}

// deadName renders pkg.Name, or pkg.Type.Method for a method.
func deadName(obj types.Object) string {
	name := obj.Pkg().Name() + "." + obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		recv := fn.Type().(*types.Signature).Recv()
		if recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				name = obj.Pkg().Name() + "." + named.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return name
}
