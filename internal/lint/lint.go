// Package lint is FedForecaster's project-specific static-analysis
// layer: a stdlib-only driver (go/ast + go/parser + go/token +
// go/types, no golang.org/x/tools) plus a registry of analyzers that
// encode the repository's determinism, numeric-safety, and
// error-hygiene invariants.
//
// The reproduction's value rests on bit-identical replays: the
// synthetic knowledge base, the seeded chaos fault schedules, and the
// GP/EI optimization loop must all regenerate from a seed. The
// analyzers turn that discipline from reviewer vigilance into a build
// gate:
//
//	seededrand   all randomness flows through an injected *rand.Rand
//	floateq      no ==/!= between computed floating-point values
//	errdrop      no silently discarded error returns
//	panicfree    no panic/os.Exit/log.Fatal in library packages
//	walltime     no wall-clock reads in deterministic algorithm packages
//	maporder     no map iteration order reaching order-sensitive state
//	goroleak     no goroutine blocked on a channel with no termination path
//	privacyflow  no raw series data crossing the federated boundary
//	lockguard    `// guarded by <mu>` fields accessed only under their mutex
//	deadlineflow engine-phase network calls go through the fl retry layer
//	codeccover   wire-format schema drift and un-interned protocol vocabulary
//	hotalloc     no escaping heap allocations in loops on the hot region
//	bigcopy      no large by-value struct/array copies in hot functions
//	prealloc     append-in-loop with statically derivable capacity
//	deferloop    no defer inside loops in hot functions
//	iboxing      no numeric→interface boxing inside hot loops
//	deadexport   no exported production code that only tests reach
//
// The intraprocedural rules (seededrand through goroleak) run per
// package. The rest are interprocedural: they share a module-wide call
// graph (callgraph.go) with type-based resolution of interface calls.
// privacyflow runs a field-sensitive taint analysis (taint.go) from
// raw-series sources to fl.Message sinks, with an allowlist of
// aggregating sanitizers — the paper's privacy model checked as code.
// lockguard, deadlineflow, and codeccover encode the concurrency and
// wire-format policy the same way (see DESIGN.md "Concurrency policy
// as code").
//
// Deliberate violations are annotated in the source with
//
//	//lint:allow <rule> <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory — a suppression without a justification is itself a
// diagnostic (rule "directive").
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
	// Chain is the source→sink call chain for interprocedural rules
	// (privacyflow); empty for single-site diagnostics. Each entry is
	// "name (file:line)" from source to sink.
	Chain []string
}

// String renders the canonical file:line:col: rule: message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// Package is one parsed, type-checked package as seen by analyzers.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// module lists every package LoadModule loaded with this one; nil
	// for a package loaded on its own (LoadDir) or built by hand.
	module []*Package
}

// Config carries the project policy the analyzers enforce. The zero
// value disables every scope-restricted rule; use DefaultConfig for
// the repository's policy.
type Config struct {
	// ModulePath is the module's import-path prefix (from go.mod).
	ModulePath string
	// WalltimePkgs lists the import paths of deterministic algorithm
	// packages where wall-clock reads are forbidden.
	WalltimePkgs map[string]bool
	// WalltimeAllowFuncs names sanctioned wall-clock capture sites
	// (types.Func.FullName form, e.g. "module/internal/obs.NowNanos"):
	// wall-clock reads lexically inside these function declarations are
	// permitted without per-line annotation. This is how a
	// walltime-scoped telemetry package funnels all clock access through
	// one audited function.
	WalltimeAllowFuncs map[string]bool
	// ErrDropAllow lists fully-qualified functions (types.Func.FullName
	// form, e.g. "fmt.Println" or "(*strings.Builder).WriteString")
	// whose error results may be discarded without annotation.
	ErrDropAllow map[string]bool
	// FloatEqAllowFuncs names tolerance-helper functions inside which
	// floating-point ==/!= is permitted (they implement the tolerance).
	FloatEqAllowFuncs map[string]bool

	// PrivacySourceTypes names the raw-data types (qualified
	// "pkgpath.Name") whose values must never reach a privacy sink.
	// Pointers, slices, and arrays of a source type are raw-bearing too.
	PrivacySourceTypes map[string]bool
	// PrivacySinkTypes names the boundary-crossing message types:
	// storing a tainted value into any field (or field map/slice) of a
	// sink type is a privacy violation.
	PrivacySinkTypes map[string]bool
	// PrivacySinkFuncs lists functions (types.Func.FullName form) whose
	// arguments cross the boundary directly — transports and encoders.
	PrivacySinkFuncs map[string]bool
	// PrivacySanitizers lists aggregating functions (FullName form)
	// whose results are considered aggregate statistics, not raw data:
	// taint does not propagate through them.
	PrivacySanitizers map[string]bool

	// MapOrderSortFuncs lists sorting functions that launder map
	// iteration order: a map-range loop that only appends to a slice
	// later passed to one of these is the sanctioned sorted-keys idiom.
	MapOrderSortFuncs map[string]bool

	// DeadlineRoots names the engine-phase entry points (FullName form)
	// from which the deadlineflow rule explores the call graph. Phase
	// functions are referenced only from package-level var tables —
	// never called from another function body — so they have no
	// incoming call-graph edges and must be listed explicitly.
	DeadlineRoots map[string]bool
	// DeadlineSafeFuncs names the retry-layer functions (FullName form)
	// that bound every call they make with deadlines and bounded retry.
	// deadlineflow does not descend into them: a network call inside a
	// safe function is, by construction, deadline-protected.
	DeadlineSafeFuncs map[string]bool
	// DeadlineSinkFuncs names the raw network operations (FullName
	// form, interface methods included): reaching one of these from a
	// root without passing through a safe function is a finding.
	DeadlineSinkFuncs map[string]bool

	// CodecPkgs names the wire-format packages the codeccover rule
	// audits: each must keep every exported field of its Message struct
	// reachable from both Encode and Decode, and may define the `vocab`
	// intern table.
	CodecPkgs map[string]bool
	// CodecVocabPkgs names the packages whose protocol vocabulary
	// constants (names matching kind*/key*) must be interned in a
	// CodecPkgs vocab table — an un-interned kind silently falls back
	// to costly direct-form string encoding on every message.
	CodecVocabPkgs map[string]bool

	// HotRoots names the entry points (FullName form) of the
	// performance hot region: the functions whose transitive callees the
	// perf rules (hotalloc, bigcopy, prealloc, deferloop, iboxing)
	// police. Like DeadlineRoots, table-dispatched functions must be
	// listed explicitly — they have no incoming call-graph edges. Empty
	// disables the perf rules.
	HotRoots map[string]bool
	// HotExemptPkgs names packages whose functions never join the hot
	// region even when reachable from a root (and through which the
	// hot-region BFS does not descend): the model-zoo training packages
	// are the workload itself, not protocol overhead, and the telemetry
	// package's cost is an explicit opt-in. A function that is itself a
	// HotRoot stays hot regardless of its package.
	HotExemptPkgs map[string]bool
	// BigCopyBytes is the bigcopy threshold: by-value copies and
	// range-copies of structs/arrays of at least this many bytes (under
	// the canonical 64-bit gc layout) are findings in hot functions.
	// 0 disables the bigcopy rule.
	BigCopyBytes int64
}

// DefaultConfig returns the FedForecaster policy: walltime applies to
// the deterministic algorithm packages, console printing and
// never-failing builder writes are exempt from errdrop, and the
// repository's tolerance helpers may compare floats exactly.
func DefaultConfig(modulePath string) Config {
	wt := map[string]bool{}
	for _, p := range []string{"core", "synth", "bayesopt", "metafeat", "ensemble", "tree", "obs"} {
		wt[modulePath+"/internal/"+p] = true
	}
	return Config{
		ModulePath:   modulePath,
		WalltimePkgs: wt,
		WalltimeAllowFuncs: map[string]bool{
			// The telemetry layer's single sanctioned wall-clock capture
			// site: every timestamp/duration in the event stream funnels
			// through it, so instrumented packages stay annotation-free.
			modulePath + "/internal/obs.NowNanos": true,
		},
		ErrDropAllow: map[string]bool{
			// Console output: failure is untestable and unactionable.
			"fmt.Print": true, "fmt.Printf": true, "fmt.Println": true,
			// Documented to never return a non-nil error.
			"(*strings.Builder).Write":       true,
			"(*strings.Builder).WriteString": true,
			"(*strings.Builder).WriteByte":   true,
			"(*strings.Builder).WriteRune":   true,
			"(*bytes.Buffer).Write":          true,
			"(*bytes.Buffer).WriteString":    true,
			"(*bytes.Buffer).WriteByte":      true,
			"(*bytes.Buffer).WriteRune":      true,
		},
		FloatEqAllowFuncs: map[string]bool{
			"almostEqual": true, "approxEqual": true, "floatsEqual": true,
			"EqualTol": true, "withinTol": true,
		},
		PrivacySourceTypes: map[string]bool{
			modulePath + "/internal/timeseries.Series": true,
		},
		PrivacySinkTypes: map[string]bool{
			// fl.Message is an alias of codec.Message, so go/types names
			// the type by its defining package; the fl spelling is kept
			// for configs predating the alias.
			modulePath + "/internal/fl.Message":       true,
			modulePath + "/internal/fl/codec.Message": true,
		},
		PrivacySinkFuncs: map[string]bool{
			"(" + modulePath + "/internal/fl.Transport).Call": true,
			modulePath + "/internal/fl/codec.Encode":          true,
			modulePath + "/internal/fl/codec.AppendEncode":    true,
		},
		// Note for extenders: the codec's quantizer (quantInt8) looks
		// like an aggregation — it reduces a tensor to scale/offset plus
		// low-precision levels — but it is a reversible-to-within-epsilon
		// transform, not a scalar statistic the privacy policy admits. It
		// stays OFF the sanitizer list so tainted Series data quantized
		// on its way into a Message still trips the privacyflow rule.
		PrivacySanitizers: map[string]bool{
			// Aggregating reductions: their results are the scalar
			// statistics the paper's privacy model permits to cross the
			// client→server boundary (see DESIGN.md "Privacy policy as
			// code" for the extension procedure).
			modulePath + "/internal/metafeat.ExtractClient":     true,
			modulePath + "/internal/metafeat.Aggregate":         true,
			modulePath + "/internal/metalearn.BuildRecord":      true,
			modulePath + "/internal/pipeline.ClientLoss":        true,
			modulePath + "/internal/features.ClientImportances": true,
			// Accounting measurement, not transmission: EncodedSize reduces
			// a message to its frame length (a byte count — a scalar
			// statistic) and discards the encoding. A real leak still trips
			// at the transmitting sinks (Transport.Call, codec.Encode /
			// AppendEncode on the send path).
			modulePath + "/internal/fl/codec.EncodedSize":                      true,
			"(*" + modulePath + "/internal/timeseries.Series).Len":             true,
			"(*" + modulePath + "/internal/timeseries.Series).MissingFraction": true,
		},
		MapOrderSortFuncs: mapOrderSortFuncs(),
		DeadlineRoots: map[string]bool{
			// The five engine phases: dispatched through the package-level
			// phase table, so the call graph has no edges into them.
			modulePath + "/internal/core.runPhaseMetaFeatures":  true,
			modulePath + "/internal/core.runPhaseRecommend":     true,
			modulePath + "/internal/core.runPhaseFeatureSelect": true,
			modulePath + "/internal/core.runPhaseOptimize":      true,
			modulePath + "/internal/core.runPhaseFinalFit":      true,
			// Orchestration entry points above the phase table.
			"(*" + modulePath + "/internal/core.Engine).Run":           true,
			"(*" + modulePath + "/internal/core.Engine).RunWithServer": true,
		},
		DeadlineSafeFuncs: map[string]bool{
			// The retry layer: per-attempt watchdog timeouts, bounded
			// backoff, quorum accounting (see DESIGN.md "Concurrency
			// policy as code" for why these — and only these — may touch
			// the transport from engine code).
			modulePath + "/internal/fl.callWithPolicy":                 true,
			"(*" + modulePath + "/internal/fl.Server).BroadcastQuorum": true,
		},
		DeadlineSinkFuncs: map[string]bool{
			"(" + modulePath + "/internal/fl.Transport).Call": true,
			"(net.Conn).Write": true,
		},
		CodecPkgs: map[string]bool{
			modulePath + "/internal/fl/codec": true,
		},
		CodecVocabPkgs: map[string]bool{
			modulePath + "/internal/core": true,
		},
		HotRoots: map[string]bool{
			// The five engine phases: dispatched through the package-level
			// phase table, so the call graph has no edges into them. Every
			// per-round allocation below these multiplies by fleet size.
			modulePath + "/internal/core.runPhaseMetaFeatures":  true,
			modulePath + "/internal/core.runPhaseRecommend":     true,
			modulePath + "/internal/core.runPhaseFeatureSelect": true,
			modulePath + "/internal/core.runPhaseOptimize":      true,
			modulePath + "/internal/core.runPhaseFinalFit":      true,
			// Wire codec: encode/decode run once per message per client.
			modulePath + "/internal/fl/codec.Encode":       true,
			modulePath + "/internal/fl/codec.AppendEncode": true,
			modulePath + "/internal/fl/codec.Decode":       true,
			// Client-side batch evaluation and metadata rounds.
			"(*" + modulePath + "/internal/core.ClientNode).evaluateBatch": true,
			"(*" + modulePath + "/internal/core.ClientNode).Properties":    true,
			// Bayesian optimization: propose/observe run every round, with
			// a 256-candidate EI scan per search space inside.
			"(*" + modulePath + "/internal/bayesopt.Optimizer).ProposeBatch": true,
			"(*" + modulePath + "/internal/bayesopt.Optimizer).ObserveAll":   true,
			// Dense linear-algebra and N-BEATS inner kernels.
			modulePath + "/internal/linalg.Dot":                    true,
			modulePath + "/internal/linalg.Cholesky":               true,
			modulePath + "/internal/linalg.CholeskySolve":          true,
			"(*" + modulePath + "/internal/nbeats.Model).forward":  true,
			"(*" + modulePath + "/internal/nbeats.Model).backward": true,
		},
		HotExemptPkgs: map[string]bool{
			// The model zoo's training loops are the workload itself — the
			// perf policy targets protocol/orchestration overhead around
			// them, not the math they exist to do. The tree core, the
			// ensembles built on it and the linear models are policed:
			// their inner loops allocate no scratch.
			modulePath + "/internal/prophet": true,
			modulePath + "/internal/model":   true,
			// Telemetry: the nil-recorder fast path is the hot path; an
			// attached recorder is an explicitly purchased tax.
			modulePath + "/internal/obs": true,
		},
		BigCopyBytes: 128,
	}
}

// mapOrderSortFuncs returns the default set of order-laundering sort
// functions recognized by the maporder rule.
func mapOrderSortFuncs() map[string]bool {
	return map[string]bool{
		"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
		"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true,
		"sort.Stable": true, "slices.Sort": true, "slices.SortFunc": true,
		"slices.SortStableFunc": true,
	}
}

// FixtureConfig returns the policy the golden fixtures (and the
// -fixture CLI mode) are linted under: the default config with every
// given fixture import path registered as a walltime-scoped package
// and bound to the fixture conventions — a fixture package may declare
// `Series` (privacy source type), `Message` (privacy sink type, and
// codec schema struct), `Send` (privacy sink function), `Aggregate`
// (sanitizer), `RunPhase` (deadlineflow root), `CallSafe` (deadlineflow
// retry layer), and `NetCall` (deadlineflow sink) to exercise the
// interprocedural rules without importing the real module packages.
func FixtureConfig(importPaths ...string) Config {
	cfg := DefaultConfig("fixture")
	for _, ip := range importPaths {
		cfg.WalltimePkgs[ip] = true
		cfg.WalltimeAllowFuncs[ip+".Capture"] = true
		cfg.PrivacySourceTypes[ip+".Series"] = true
		cfg.PrivacySinkTypes[ip+".Message"] = true
		cfg.PrivacySinkFuncs[ip+".Send"] = true
		cfg.PrivacySanitizers[ip+".Aggregate"] = true
		cfg.DeadlineRoots[ip+".RunPhase"] = true
		cfg.DeadlineSafeFuncs[ip+".CallSafe"] = true
		cfg.DeadlineSinkFuncs[ip+".NetCall"] = true
		cfg.CodecPkgs[ip] = true
		cfg.CodecVocabPkgs[ip] = true
		cfg.HotRoots[ip+".RunHot"] = true
	}
	return cfg
}

// isLibraryPackage reports whether pkg is subject to library-only
// rules: not a main package, not under cmd/ or examples/.
func (c Config) isLibraryPackage(pkg *Package) bool {
	if pkg.Types != nil && pkg.Types.Name() == "main" {
		return false
	}
	for _, seg := range []string{"/cmd/", "/examples/"} {
		if strings.Contains(pkg.ImportPath+"/", seg) {
			return false
		}
	}
	return true
}

// Analyzer is one lint rule. Exactly one of Run (per-package,
// intraprocedural) or RunModule (whole-module, interprocedural) is
// set.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
	// RunModule analyzes every package of the run at once — for rules
	// that need the module-wide call graph and cross-package dataflow.
	RunModule func(*ModulePass)
}

// Pass hands one type-checked package to one analyzer and collects
// its findings.
type Pass struct {
	Fset     *token.FileSet
	Pkg      *Package
	Config   Config
	rule     string
	findings []Finding
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// ModulePass hands the whole run — every type-checked package — to a
// module-level analyzer.
type ModulePass struct {
	Fset   *token.FileSet
	Pkgs   []*Package
	Config Config
	// Graph is the module-wide call graph, built once per Run and
	// shared by every module-level rule. May be nil when a ModulePass
	// is constructed by hand; use graph() to get a lazily-built one.
	Graph    *CallGraph
	rule     string
	findings []Finding
}

// graph returns the shared call graph, building it on first use when
// the pass was constructed without one.
func (p *ModulePass) graph() *CallGraph {
	if p.Graph == nil {
		p.Graph = BuildCallGraph(p.Fset, p.Pkgs)
	}
	return p.Graph
}

// Reportf records a diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// ReportChain records a diagnostic at pos carrying a source→sink call
// chain (each entry "name (file:line)").
func (p *ModulePass) ReportChain(pos token.Pos, chain []string, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
		Chain:   chain,
	})
}

// Analyzers returns the full registry in a fixed order: the
// per-package rules first, then the module-level rules.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		SeededRand, FloatEq, ErrDrop, PanicFree, Walltime, MapOrder, GoroLeak,
		PrivacyFlow, LockGuard, DeadlineFlow, CodecCover,
		HotAlloc, BigCopy, Prealloc, DeferLoop, IBoxing, DeadExport,
	}
}

// Run executes the analyzers over every package — per-package rules
// one goroutine per package, module rules once over the whole set,
// findings merged deterministically — applies the //lint:allow
// suppression comments, and returns the surviving diagnostics sorted
// by position then rule.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer, cfg Config) []Finding {
	// Directive validation recognizes every registered rule, not just the
	// analyzers selected for this run: a subset run (fedlint -only) must
	// not misreport directives naming unselected rules as unknown.
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	// Suppression directives are collected once per package; malformed
	// directives surface as "directive" findings.
	sups := make([]*suppressions, len(pkgs))
	var all []Finding
	for i, pkg := range pkgs {
		var df []Finding
		sups[i], df = collectDirectives(fset, pkg, known)
		all = append(all, df...)
	}

	perPkg := make([][]Finding, len(pkgs))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			perPkg[i] = runPackage(fset, pkg, analyzers, cfg, sups[i])
		}(i, pkg)
	}
	wg.Wait()
	for _, fs := range perPkg {
		all = append(all, fs...)
	}

	merged := mergeSuppressions(sups)
	// The call graph is shared by every module-level rule: built once,
	// read-only afterwards.
	var graph *CallGraph
	for _, a := range analyzers {
		if a.RunModule != nil {
			graph = BuildCallGraph(fset, pkgs)
			break
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		mp := &ModulePass{Fset: fset, Pkgs: pkgs, Config: cfg, Graph: graph, rule: a.Name}
		a.RunModule(mp)
		for _, f := range mp.findings {
			if merged.allowed(f.Pos, f.Rule) {
				continue
			}
			all = append(all, f)
		}
	}

	sortFindings(all)
	return all
}

// runPackage runs every per-package analyzer over one package and
// filters the findings through the package's suppression directives.
func runPackage(fset *token.FileSet, pkg *Package, analyzers []*Analyzer, cfg Config, sup *suppressions) []Finding {
	var findings []Finding
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		pass := &Pass{Fset: fset, Pkg: pkg, Config: cfg, rule: a.Name}
		a.Run(pass)
		for _, f := range pass.findings {
			if sup.allowed(f.Pos, f.Rule) {
				continue
			}
			findings = append(findings, f)
		}
	}
	return findings
}

// sortFindings orders diagnostics by file, line, column, rule,
// message — the deterministic merge order promised by Run.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}
