package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LoadModule discovers, parses, and type-checks every non-test
// package under root (the directory containing go.mod). Directories
// named testdata or vendor, hidden/underscore directories, and
// directories below root that hold their own go.mod (other modules)
// are skipped, mirroring the go tool. Test files are excluded: the lint
// invariants govern shipped library code, while _test.go files are
// exercised (and race-checked) by go test itself.
//
// Packages are returned sorted by import path, each fully
// type-checked with stdlib dependencies resolved from $GOROOT source
// — the loader has no dependency outside the standard library.
func LoadModule(root string) (*token.FileSet, []*Package, string, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, "", err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, nil, "", err
	}

	fset := token.NewFileSet()
	byPath := map[string]*Package{}
	var paths []string
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, nil, "", err
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := parseDir(fset, dir, ip)
		if err != nil {
			return nil, nil, "", err
		}
		if pkg == nil {
			continue // no non-test Go files
		}
		byPath[ip] = pkg
		paths = append(paths, ip)
	}
	sort.Strings(paths)

	order, err := topoOrder(byPath, paths, modPath)
	if err != nil {
		return nil, nil, "", err
	}
	imp := newModuleImporter(fset, modPath)
	for _, ip := range order {
		if err := typeCheck(fset, byPath[ip], imp); err != nil {
			return nil, nil, "", err
		}
		imp.pkgs[ip] = byPath[ip].Types
	}

	pkgs := make([]*Package, 0, len(paths))
	for _, ip := range paths {
		pkgs = append(pkgs, byPath[ip])
	}
	for _, pkg := range pkgs {
		pkg.module = pkgs
	}
	return fset, pkgs, modPath, nil
}

// LoadDir parses and type-checks a single standalone package rooted
// at dir under the given import path. Used by the driver tests to
// load golden fixtures from testdata, which the go tool itself
// ignores.
func LoadDir(fset *token.FileSet, dir, importPath string) (*Package, error) {
	pkg, err := parseDir(fset, dir, importPath)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	if err := typeCheck(fset, pkg, newModuleImporter(fset, importPath)); err != nil {
		return nil, err
	}
	return pkg, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w (run from the module root)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

// packageDirs walks root collecting every directory that may hold a
// package, skipping VCS, vendor, testdata, and hidden directories, and
// nested modules: a directory below root with its own go.mod belongs to
// another module, as it does for go build ./... .
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if path != root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// parseDir parses the non-test Go files of dir (sorted by name, so
// positions and declaration order are deterministic). Returns nil
// when the directory holds no non-test Go files.
func parseDir(fset *token.FileSet, dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return &Package{ImportPath: importPath, Dir: dir, Files: files}, nil
}

// topoOrder sorts module-internal packages so every package is
// type-checked after its in-module dependencies.
func topoOrder(byPath map[string]*Package, paths []string, modPath string) ([]string, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[string]int{}
	var order []string
	var visit func(ip string) error
	visit = func(ip string) error {
		switch state[ip] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", ip)
		}
		state[ip] = visiting
		pkg := byPath[ip]
		for _, dep := range internalImports(pkg, modPath) {
			if byPath[dep] == nil {
				return fmt.Errorf("lint: %s imports %s, which has no Go files in the module", ip, dep)
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[ip] = done
		order = append(order, ip)
		return nil
	}
	for _, ip := range paths {
		if err := visit(ip); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// internalImports lists pkg's module-internal imports, sorted.
func internalImports(pkg *Package, modPath string) []string {
	seen := map[string]bool{}
	var deps []string
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path != modPath && !strings.HasPrefix(path, modPath+"/") {
				continue
			}
			if !seen[path] {
				seen[path] = true
				deps = append(deps, path)
			}
		}
	}
	sort.Strings(deps)
	return deps
}

// moduleImporter resolves module-internal imports from the packages
// already type-checked this run and everything else (the standard
// library) from $GOROOT source via the stdlib source importer.
type moduleImporter struct {
	modPath string
	std     types.ImporterFrom
	pkgs    map[string]*types.Package
}

func newModuleImporter(fset *token.FileSet, modPath string) *moduleImporter {
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		// The source importer has implemented ImporterFrom since Go 1.9;
		// this is unreachable on any supported toolchain.
		//lint:allow panicfree unreachable: the source importer has implemented ImporterFrom since Go 1.9
		panic("lint: source importer does not implement types.ImporterFrom")
	}
	return &moduleImporter{modPath: modPath, std: std, pkgs: map[string]*types.Package{}}
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	if path == m.modPath || strings.HasPrefix(path, m.modPath+"/") {
		return nil, fmt.Errorf("lint: internal package %s not yet type-checked (import cycle?)", path)
	}
	return m.std.ImportFrom(path, dir, mode)
}

// typeCheck runs the go/types checker over one parsed package,
// filling pkg.Types and pkg.Info.
func typeCheck(fset *token.FileSet, pkg *Package, imp types.Importer) error {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkg.ImportPath, fset, pkg.Files, info)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", pkg.ImportPath, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}
