package lint

import (
	"path/filepath"
	"slices"
	"testing"
)

// deadexportModule is the deadexport fixture: a small module (root
// API package, an audited package, a package main) that LoadModule
// loads like the real one.
var deadexportModule = filepath.Join("testdata", "src", "deadexport")

// TestDeadExportFixture runs the full registry over the fixture module
// and matches findings one-to-one against its want comments: dead
// funcs, types, vars, consts and methods fire; a method reached only
// through an interface, a String method, a method implementing a
// module interface, an allow-annotated hook, the root package and
// package main stay silent, and a call from a nested module keeps
// nothing alive.
func TestDeadExportFixture(t *testing.T) {
	fset, pkgs, modPath, err := LoadModule(deadexportModule)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	got := Run(fset, pkgs, Analyzers(), DefaultConfig(modPath))
	matchExpectations(t, got, readExpectations(t, "deadexport"))
}

// TestLoadModuleSkipsNestedModules: the fixture's bench directory
// holds its own go.mod, so LoadModule leaves its packages out, as go
// build ./... does, and their references keep nothing alive.
func TestLoadModuleSkipsNestedModules(t *testing.T) {
	_, pkgs, _, err := LoadModule(deadexportModule)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	var paths []string
	for _, pkg := range pkgs {
		paths = append(paths, pkg.ImportPath)
	}
	want := []string{"fixture/deadexport", "fixture/deadexport/cmd/tool", "fixture/deadexport/lib"}
	if !slices.Equal(paths, want) {
		t.Errorf("loaded %v, want %v", paths, want)
	}
}

// TestDeadExportSubsetSilent: a run over part of the module sees only
// part of the references, so the rule must report nothing — not the
// dead declarations, and not the live ones whose callers are outside
// the run.
func TestDeadExportSubsetSilent(t *testing.T) {
	fset, pkgs, modPath, err := LoadModule(deadexportModule)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	for _, pkg := range pkgs {
		for _, f := range Run(fset, []*Package{pkg}, []*Analyzer{DeadExport}, DefaultConfig(modPath)) {
			t.Errorf("subset run over %s: %s", pkg.ImportPath, f)
		}
	}
}
