package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches golden-fixture expectation comments:
//
//	// want <rule> "<message substring>"
//
// placed at the end of the offending line.
var wantRe = regexp.MustCompile(`// want ([a-z]+) "([^"]*)"`)

// expectation is one parsed want comment.
type expectation struct {
	file   string // base name of the fixture file
	line   int
	rule   string
	substr string
}

// fixtureRules are the analyzer fixtures under testdata/src, one
// directory per rule.
var fixtureRules = []string{
	"seededrand", "floateq", "errdrop", "panicfree", "walltime", "maporder",
	"goroleak", "privacyflow", "lockguard", "deadlineflow", "codeccover",
	"hotalloc", "bigcopy", "prealloc", "deferloop", "iboxing",
}

// loadFixture parses and type-checks testdata/src/<name> under the
// import path fixture/<name>.
func loadFixture(t *testing.T, fset *token.FileSet, name string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := LoadDir(fset, dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	return pkg
}

// fixtureConfig is the policy the fixtures are written against: every
// fixture package registered as a deterministic package and bound to
// the fixture privacy conventions (Series/Message/Send/Aggregate).
func fixtureConfig() Config {
	ips := make([]string, 0, len(fixtureRules))
	for _, r := range fixtureRules {
		ips = append(ips, "fixture/"+r)
	}
	return FixtureConfig(ips...)
}

// readExpectations scans every fixture file under testdata/src/<name>,
// subdirectories included, for want comments.
func readExpectations(t *testing.T, name string) []expectation {
	t.Helper()
	var wants []expectation
	err := filepath.WalkDir(filepath.Join("testdata", "src", name), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				wants = append(wants, expectation{
					file: filepath.Base(path), line: i + 1, rule: m[1], substr: m[2],
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("reading fixture %s: %v", name, err)
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", name)
	}
	return wants
}

// matchExpectations requires a one-to-one match between findings and
// want comments: every finding must be expected (same file, line, and
// rule, message containing the quoted substring) and every expectation
// must fire.
func matchExpectations(t *testing.T, got []Finding, wants []expectation) {
	t.Helper()
	used := make([]bool, len(wants))
findings:
	for _, f := range got {
		base := filepath.Base(f.Pos.Filename)
		for i, w := range wants {
			if used[i] || w.file != base || w.line != f.Pos.Line || w.rule != f.Rule {
				continue
			}
			if !strings.Contains(f.Message, w.substr) {
				t.Errorf("%s: message %q does not contain want substring %q", f, f.Message, w.substr)
			}
			used[i] = true
			continue findings
		}
		t.Errorf("unexpected finding: %s", f)
	}
	for i, w := range wants {
		if !used[i] {
			t.Errorf("expected finding did not fire: %s:%d %s %q", w.file, w.line, w.rule, w.substr)
		}
	}
}

// TestFixtures runs the full analyzer registry over each golden
// fixture package and matches findings one-to-one against its want
// comments. Unsuppressed violations on //lint:allow lines or missing
// suppressions both fail the match.
func TestFixtures(t *testing.T) {
	for _, name := range fixtureRules {
		t.Run(name, func(t *testing.T) {
			fset := token.NewFileSet()
			pkg := loadFixture(t, fset, name)
			got := Run(fset, []*Package{pkg}, Analyzers(), fixtureConfig())
			matchExpectations(t, got, readExpectations(t, name))
		})
	}
}

// TestExactPositions pins down exact file:line:col diagnostics for one
// finding per rule, with the column computed from the fixture source
// so the assertion tracks the file byte-for-byte.
func TestExactPositions(t *testing.T) {
	cases := []struct {
		rule     string
		lineSub  string // identifies the offending source line
		colToken string // token whose 1-based column the finding must carry
	}{
		{"seededrand", "rand.Float64()", "Float64"},
		{"floateq", "return a == b // want", "=="},
		{"errdrop", "mayFail() // want", "mayFail()"},
		{"panicfree", `panic("negative")`, "panic"},
		{"walltime", "return time.Now() // want", "Now"},
		{"maporder", `range m { // want maporder "float accumulation"`, "for"},
		{"goroleak", "ch <- 1 // want", "ch"},
		{"privacyflow", `m.Floats["raw"] = n.data.Values`, "m.Floats"},
		{"lockguard", "c.n++ // want", "c.n"},
		{"deadlineflow", `return NetCall(req + "!")`, "NetCall"},
		{"codeccover", `kindMissing = "props/missing"`, "kindMissing"},
		{"hotalloc", "row := make([]float64, n)", "make"},
		{"bigcopy", "range items { // want bigcopy", "it"},
		{"prealloc", "out = append(out, x*2)", "append"},
		{"deferloop", "defer r.close() // want", "defer"},
		{"iboxing", "var v any = x", "x"},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			file := filepath.Join("testdata", "src", tc.rule, tc.rule+".go")
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatalf("ReadFile: %v", err)
			}
			wantLine, wantCol := 0, 0
			for i, line := range strings.Split(string(data), "\n") {
				if !strings.Contains(line, tc.lineSub) {
					continue
				}
				wantLine = i + 1
				wantCol = strings.Index(line, tc.colToken) + 1 // 1-based byte column
				break
			}
			if wantLine == 0 {
				t.Fatalf("fixture line %q not found in %s", tc.lineSub, file)
			}

			fset := token.NewFileSet()
			pkg := loadFixture(t, fset, tc.rule)
			got := Run(fset, []*Package{pkg}, Analyzers(), fixtureConfig())
			for _, f := range got {
				if f.Rule != tc.rule || f.Pos.Line != wantLine {
					continue
				}
				if f.Pos.Column != wantCol {
					t.Fatalf("finding %s: column = %d, want %d", f, f.Pos.Column, wantCol)
				}
				wantPrefix := fmt.Sprintf("%s:%d:%d: %s: ", file, wantLine, wantCol, tc.rule)
				if !strings.HasPrefix(f.String(), wantPrefix) {
					t.Fatalf("finding rendered %q, want prefix %q", f.String(), wantPrefix)
				}
				return
			}
			t.Fatalf("no %s finding at %s:%d", tc.rule, file, wantLine)
		})
	}
}

// TestSuppressionForms verifies both directive placements end-to-end:
// the fixtures contain one same-line and one line-above //lint:allow
// per rule (asserted here so the fixtures cannot silently lose them),
// and TestFixtures already proves no finding escapes either form.
func TestSuppressionForms(t *testing.T) {
	for _, name := range fixtureRules {
		file := filepath.Join("testdata", "src", name, name+".go")
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		var sameLine, lineAbove bool
		for _, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, directivePrefix+" "+name)
			if idx < 0 {
				continue
			}
			if strings.TrimSpace(line[:idx]) == "" {
				lineAbove = true
			} else {
				sameLine = true
			}
		}
		if !sameLine && !lineAbove {
			t.Errorf("%s: fixture has no //lint:allow %s directive", file, name)
		}
	}
	// At least one fixture must exercise each placement.
	var anySame, anyAbove bool
	for _, name := range fixtureRules {
		data, _ := os.ReadFile(filepath.Join("testdata", "src", name, name+".go"))
		for _, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, directivePrefix+" ")
			if idx < 0 {
				continue
			}
			if strings.TrimSpace(line[:idx]) == "" {
				anyAbove = true
			} else {
				anySame = true
			}
		}
	}
	if !anySame || !anyAbove {
		t.Errorf("fixtures must exercise both same-line and line-above suppression (same=%v above=%v)", anySame, anyAbove)
	}
}

// TestDirectiveValidation checks the directive fixture: a reason-less
// directive and an unknown-rule directive are diagnostics at exact
// positions, and the well-formed directive is silent.
func TestDirectiveValidation(t *testing.T) {
	fset := token.NewFileSet()
	pkg := loadFixture(t, fset, "directive")
	got := Run(fset, []*Package{pkg}, Analyzers(), fixtureConfig())
	file := filepath.Join("testdata", "src", "directive", "directive.go")
	want := []string{
		file + ":10:1: directive: malformed suppression: want //lint:allow <rule> <reason>",
		file + ":13:1: directive: unknown rule nosuchrule in //lint:allow directive",
		file + ":28:1: directive: unknown rule nosuchrule in //lint:allow directive",
		file + ":31:1: directive: malformed suppression: empty rule in comma-separated list",
	}
	var gotStrs []string
	for _, f := range got {
		gotStrs = append(gotStrs, f.String())
	}
	if strings.Join(gotStrs, "\n") != strings.Join(want, "\n") {
		t.Errorf("directive fixture findings:\n%s\nwant:\n%s",
			strings.Join(gotStrs, "\n"), strings.Join(want, "\n"))
	}
}

// TestCommaSuppressionRuleExact pins the two-rules-same-position edge
// case on the prealloc fixture: the `both` loop draws prealloc AND
// hotalloc findings on one line (proved by TestFixtures); the `muted`
// twin silences both with a single comma-list directive; and the
// `half` twin's line-above directive names only hotalloc, so prealloc
// must still fire on the very line the directive covers.
func TestCommaSuppressionRuleExact(t *testing.T) {
	fset := token.NewFileSet()
	pkg := loadFixture(t, fset, "prealloc")
	got := Run(fset, []*Package{pkg}, Analyzers(), fixtureConfig())

	lineOf := func(sub string) int {
		data, err := os.ReadFile(filepath.Join("testdata", "src", "prealloc", "prealloc.go"))
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.Contains(line, sub) {
				return i + 1
			}
		}
		t.Fatalf("fixture line %q not found", sub)
		return 0
	}
	bothLine := lineOf("both = append(both,")
	mutedLine := lineOf("muted = append(muted,")
	halfLine := lineOf("half = append(half,")

	rulesAt := func(line int) []string {
		var rules []string
		for _, f := range got {
			if f.Pos.Line == line {
				rules = append(rules, f.Rule)
			}
		}
		return rules
	}
	if both := rulesAt(bothLine); len(both) != 2 {
		t.Errorf("line %d (both): rules = %v, want exactly [hotalloc prealloc] in some order", bothLine, both)
	}
	if muted := rulesAt(mutedLine); len(muted) != 0 {
		t.Errorf("line %d (muted): comma-list directive left findings %v, want none", mutedLine, muted)
	}
	if half := rulesAt(halfLine); len(half) != 1 || half[0] != "prealloc" {
		t.Errorf("line %d (half): rules = %v, want exactly [prealloc] (hotalloc suppressed, prealloc rule-exact)", halfLine, half)
	}
}

// TestRunDeterministic loads every fixture into one Run (exercising
// the per-package goroutines) and checks the merged, sorted output is
// byte-identical across repeats.
func TestRunDeterministic(t *testing.T) {
	render := func() string {
		fset := token.NewFileSet()
		var pkgs []*Package
		for _, name := range append([]string{"directive"}, fixtureRules...) {
			pkgs = append(pkgs, loadFixture(t, fset, name))
		}
		var b strings.Builder
		for _, f := range Run(fset, pkgs, Analyzers(), fixtureConfig()) {
			fmt.Fprintf(&b, "%s\n", f)
		}
		return b.String()
	}
	first := render()
	if first == "" {
		t.Fatal("combined fixture run produced no findings")
	}
	for i := 0; i < 3; i++ {
		if got := render(); got != first {
			t.Fatalf("run %d diverged:\n%s\nwant:\n%s", i+2, got, first)
		}
	}
}

// TestDefaultConfigNamesResolve: every qualified function key of the
// repository policy names a function or method that exists, in a
// module package or a package the module imports. A key left behind
// by a deletion silently stops guarding anything.
func TestDefaultConfigNamesResolve(t *testing.T) {
	_, pkgs, modPath, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	known := map[string]bool{}
	seen := map[*types.Package]bool{}
	add := func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				known[obj.FullName()] = true
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				if iface, ok := named.Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumMethods(); i++ {
						known[iface.Method(i).FullName()] = true
					}
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					known[named.Method(i).FullName()] = true
				}
			}
		}
	}
	for _, pkg := range pkgs {
		add(pkg.Types)
		for _, imp := range pkg.Types.Imports() {
			add(imp)
		}
	}

	cfg := DefaultConfig(modPath)
	for field, keys := range map[string]map[string]bool{
		"WalltimeAllowFuncs": cfg.WalltimeAllowFuncs,
		"ErrDropAllow":       cfg.ErrDropAllow,
		"PrivacySinkFuncs":   cfg.PrivacySinkFuncs,
		"PrivacySanitizers":  cfg.PrivacySanitizers,
		"MapOrderSortFuncs":  cfg.MapOrderSortFuncs,
		"DeadlineRoots":      cfg.DeadlineRoots,
		"DeadlineSafeFuncs":  cfg.DeadlineSafeFuncs,
		"DeadlineSinkFuncs":  cfg.DeadlineSinkFuncs,
		"HotRoots":           cfg.HotRoots,
	} {
		for key := range keys {
			if !known[key] {
				t.Errorf("DefaultConfig.%s names %q, which resolves to no function", field, key)
			}
		}
	}
}
