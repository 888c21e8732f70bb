// Command fedlint runs FedForecaster's project-specific static
// analyzers over the module: determinism (seededrand, walltime,
// maporder), numeric safety (floateq), error hygiene (errdrop,
// panicfree), concurrency discipline (lockguard, goroleak,
// deadlineflow), wire-format coverage (codeccover), the
// interprocedural privacy-boundary check (privacyflow), the
// hot-path performance policy (hotalloc, bigcopy, prealloc,
// deferloop, iboxing), and exported code only tests reach
// (deadexport).
//
// Usage:
//
//	go run ./cmd/fedlint ./...            # analyze the whole module
//	go run ./cmd/fedlint ./internal/...   # restrict to a subtree
//	go run ./cmd/fedlint -list            # describe the rules
//	go run ./cmd/fedlint -json ./...      # one JSON diagnostic per line
//	go run ./cmd/fedlint -sarif ./...     # SARIF 2.1.0 log for code scanning
//	go run ./cmd/fedlint -graph ./...     # module call graph in DOT form
//	go run ./cmd/fedlint -only hotalloc,prealloc ./...
//	                                      # run a comma-separated subset of rules
//	go run ./cmd/fedlint -fixture internal/lint/testdata/src/errdrop
//	                                      # lint one standalone fixture dir
//
// The whole module is always loaded and type-checked (analyzers need
// full type information); patterns restrict which packages are
// analyzed. deadexport needs every package's references, so it reports
// only on a run over the whole module. Exit status: 0 clean, 1 findings, 2 usage or load error.
//
// Suppress a deliberate violation on its line (or the line above):
//
//	//lint:allow <rule> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"fedforecaster/internal/lint"
)

func main() {
	root := flag.String("root", ".", "module root (directory containing go.mod)")
	list := flag.Bool("list", false, "list the registered rules and exit")
	fixture := flag.String("fixture", "", "lint one standalone package directory (no go.mod) instead of the module")
	jsonOut := flag.Bool("json", false, "emit one JSON diagnostic per line (file/line/col/rule/message/chain)")
	sarifOut := flag.Bool("sarif", false, "emit a SARIF 2.1.0 log (for GitHub code scanning upload)")
	graph := flag.Bool("graph", false, "emit the call graph of the selected packages in Graphviz DOT form and exit")
	only := flag.String("only", "", "comma-separated rule names; run only these analyzers (registry order)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fedlint [-root dir] [-fixture dir] [-list] [-json] [-sarif] [-graph] [-only rules] [packages]\n\n"+
			"Patterns are module-relative: ./... (default), ./internal/..., ./internal/fl.\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *jsonOut && *sarifOut {
		fmt.Fprintln(os.Stderr, "fedlint: -json and -sarif are mutually exclusive")
		os.Exit(2)
	}

	analyzers, err := selectAnalyzers(lint.Analyzers(), *only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedlint:", err)
		os.Exit(2)
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	mode := modeText
	switch {
	case *jsonOut:
		mode = modeJSON
	case *sarifOut:
		mode = modeSARIF
	}

	if *fixture != "" {
		os.Exit(runFixture(os.Stdout, *fixture, analyzers, mode, *graph))
	}

	os.Exit(runModule(os.Stdout, *root, flag.Args(), analyzers, mode, *graph))
}

// runModule loads the module at root, lints the packages the patterns
// select under the repository policy (lint.DefaultConfig), and returns
// the process exit code (0 clean, 1 findings, 2 usage or load error).
func runModule(w io.Writer, root string, patterns []string, analyzers []*lint.Analyzer, mode outMode, graph bool) int {
	fset, pkgs, modPath, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedlint:", err)
		return 2
	}
	selected, err := selectPackages(pkgs, modPath, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedlint:", err)
		return 2
	}
	if graph {
		return emitGraph(w, fset, selected)
	}
	findings := lint.Run(fset, selected, analyzers, lint.DefaultConfig(modPath))
	return report(w, findings, analyzers, mode)
}

// outMode selects the findings renderer.
type outMode int

const (
	modeText outMode = iota
	modeJSON
	modeSARIF
)

// diagJSON is the stable JSON-lines schema of -json output. Field
// names and order are part of the tool's contract; the driver test
// pins them.
type diagJSON struct {
	File    string   `json:"file"`
	Line    int      `json:"line"`
	Col     int      `json:"col"`
	Rule    string   `json:"rule"`
	Message string   `json:"message"`
	Chain   []string `json:"chain,omitempty"`
}

// writeFindings renders findings in the canonical text form, as one
// JSON object per line, or as a single SARIF log.
func writeFindings(w io.Writer, findings []lint.Finding, analyzers []*lint.Analyzer, mode outMode) error {
	switch mode {
	case modeJSON:
		enc := json.NewEncoder(w)
		for _, f := range findings {
			d := diagJSON{
				File:    f.Pos.Filename,
				Line:    f.Pos.Line,
				Col:     f.Pos.Column,
				Rule:    f.Rule,
				Message: f.Message,
				Chain:   f.Chain,
			}
			if err := enc.Encode(d); err != nil {
				return err
			}
		}
		return nil
	case modeSARIF:
		return writeSARIF(w, findings, analyzers)
	default:
		for _, f := range findings {
			if _, err := fmt.Fprintln(w, f.String()); err != nil {
				return err
			}
		}
		return nil
	}
}

// report renders findings and returns the process exit code
// (0 clean, 1 findings, 2 write error).
func report(w io.Writer, findings []lint.Finding, analyzers []*lint.Analyzer, mode outMode) int {
	if err := writeFindings(w, findings, analyzers, mode); err != nil {
		fmt.Fprintln(os.Stderr, "fedlint:", err)
		return 2
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "fedlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// emitGraph writes the packages' call graph in DOT form.
func emitGraph(w io.Writer, fset *token.FileSet, pkgs []*lint.Package) int {
	if err := lint.BuildCallGraph(fset, pkgs).WriteDOT(w); err != nil {
		fmt.Fprintln(os.Stderr, "fedlint:", err)
		return 2
	}
	return 0
}

// runFixture lints one standalone package directory — the golden
// fixtures under internal/lint/testdata — under the same policy the
// driver tests use (lint.FixtureConfig). Returns the process exit
// code (0 clean, 1 findings, 2 load error).
func runFixture(w io.Writer, dir string, analyzers []*lint.Analyzer, mode outMode, graph bool) int {
	fset := token.NewFileSet()
	ip := "fixture/" + filepath.Base(filepath.Clean(dir))
	pkg, err := lint.LoadDir(fset, dir, ip)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedlint:", err)
		return 2
	}
	if graph {
		return emitGraph(w, fset, []*lint.Package{pkg})
	}
	findings := lint.Run(fset, []*lint.Package{pkg}, analyzers, lint.FixtureConfig(ip))
	return report(w, findings, analyzers, mode)
}

// selectAnalyzers filters the registry by a comma-separated -only
// list. The empty list keeps everything; selection preserves registry
// order regardless of how -only is ordered, so output stays
// deterministic. Unknown or empty rule names are usage errors.
func selectAnalyzers(all []*lint.Analyzer, only string) ([]*lint.Analyzer, error) {
	if only == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("-only: empty rule name in %q", only)
		}
		known := false
		for _, a := range all {
			if a.Name == name {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("-only: unknown rule %q (run -list for the registry)", name)
		}
		want[name] = true
	}
	var out []*lint.Analyzer
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

// selectPackages filters the loaded packages by the command-line
// patterns. No patterns (or "./...") selects everything.
func selectPackages(pkgs []*lint.Package, modPath string, patterns []string) ([]*lint.Package, error) {
	if len(patterns) == 0 {
		return pkgs, nil
	}
	keep := map[string]bool{}
	for _, pat := range patterns {
		ip, recursive, err := patternToImportPath(pat, modPath)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.ImportPath == ip || (recursive && (ip == modPath || strings.HasPrefix(p.ImportPath, ip+"/"))) {
				keep[p.ImportPath] = true
			}
		}
	}
	var out []*lint.Package
	for _, p := range pkgs {
		if keep[p.ImportPath] {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no packages match %v", patterns)
	}
	return out, nil
}

// patternToImportPath maps a module-relative pattern like
// ./internal/... to its import-path prefix and whether it is
// recursive.
func patternToImportPath(pat, modPath string) (ip string, recursive bool, err error) {
	p := filepath.ToSlash(pat)
	if rest, ok := strings.CutSuffix(p, "/..."); ok {
		recursive = true
		p = rest
	}
	p = strings.TrimPrefix(p, "./")
	switch {
	case p == "" || p == ".":
		return modPath, recursive, nil
	case strings.HasPrefix(p, modPath):
		return p, recursive, nil
	case strings.HasPrefix(p, "/"):
		return "", false, fmt.Errorf("absolute pattern %q not supported; use module-relative ./dir/...", pat)
	default:
		return modPath + "/" + p, recursive, nil
	}
}
