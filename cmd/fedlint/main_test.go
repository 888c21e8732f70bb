package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"sort"
	"strings"
	"testing"

	"fedforecaster/internal/lint"
)

const (
	privacyFixture   = "../../internal/lint/testdata/src/privacyflow"
	callgraphFixture = "../../internal/lint/testdata/src/callgraph"
)

// jsonFixtureOutput runs the privacyflow fixture through the real
// driver path in -json mode and returns the emitted lines.
func jsonFixtureOutput(t *testing.T) (string, int) {
	t.Helper()
	var buf bytes.Buffer
	code := runFixture(&buf, privacyFixture, lint.Analyzers(), modeJSON, false)
	return buf.String(), code
}

// TestJSONSchema: every -json line is a standalone JSON object with
// exactly the documented fields, and privacyflow diagnostics carry a
// non-empty source→sink chain.
func TestJSONSchema(t *testing.T) {
	out, code := jsonFixtureOutput(t)
	if code != 1 {
		t.Fatalf("runFixture exit = %d, want 1 (fixture contains deliberate findings)", code)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("no JSON diagnostics emitted")
	}
	allowed := map[string]bool{
		"file": true, "line": true, "col": true,
		"rule": true, "message": true, "chain": true,
	}
	sawChain := false
	for _, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line is not valid JSON: %q: %v", line, err)
		}
		var keys []string
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !allowed[k] {
				t.Errorf("unexpected JSON field %q in %q", k, line)
			}
		}
		for _, req := range []string{"file", "line", "col", "rule", "message"} {
			if _, ok := obj[req]; !ok {
				t.Errorf("JSON line missing required field %q: %q", req, line)
			}
		}
		if obj["rule"] == "privacyflow" {
			chain, ok := obj["chain"].([]any)
			if !ok || len(chain) < 2 {
				t.Errorf("privacyflow diagnostic without a source→sink chain: %q", line)
			}
			sawChain = true
		}
	}
	if !sawChain {
		t.Error("fixture run produced no privacyflow diagnostic with a chain")
	}
}

// TestSelectAnalyzers pins the -only contract: empty keeps the full
// registry, a comma list filters in registry order regardless of the
// flag's own ordering, whitespace around names is tolerated, and
// unknown or empty names are usage errors.
func TestSelectAnalyzers(t *testing.T) {
	all := lint.Analyzers()

	got, err := selectAnalyzers(all, "")
	if err != nil || len(got) != len(all) {
		t.Fatalf(`selectAnalyzers(all, "") = %d analyzers, err %v; want the full registry of %d`, len(got), err, len(all))
	}

	got, err = selectAnalyzers(all, "prealloc, hotalloc")
	if err != nil {
		t.Fatalf("selectAnalyzers(prealloc,hotalloc): %v", err)
	}
	var names []string
	for _, a := range got {
		names = append(names, a.Name)
	}
	// Registry order, not flag order: hotalloc is registered first.
	if strings.Join(names, ",") != "hotalloc,prealloc" {
		t.Errorf("selected %v, want [hotalloc prealloc] in registry order", names)
	}

	if _, err := selectAnalyzers(all, "nosuchrule"); err == nil {
		t.Error("unknown rule accepted by -only")
	}
	if _, err := selectAnalyzers(all, "hotalloc,,prealloc"); err == nil {
		t.Error("empty rule name accepted by -only")
	}
}

// TestOnlyFiltersFindings runs the prealloc fixture (which draws both
// prealloc and hotalloc findings) through the driver path with a
// filtered analyzer set and checks only the selected rule reports.
func TestOnlyFiltersFindings(t *testing.T) {
	analyzers, err := selectAnalyzers(lint.Analyzers(), "prealloc")
	if err != nil {
		t.Fatalf("selectAnalyzers: %v", err)
	}
	var buf bytes.Buffer
	code := runFixture(&buf, "../../internal/lint/testdata/src/prealloc", analyzers, modeJSON, false)
	if code != 1 {
		t.Fatalf("runFixture exit = %d, want 1 (fixture contains deliberate findings)", code)
	}
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line is not valid JSON: %q: %v", line, err)
		}
		if obj["rule"] != "prealloc" {
			t.Errorf("-only prealloc emitted rule %v: %q", obj["rule"], line)
		}
	}
}

// TestJSONDeterministic: repeated runs are byte-identical — the
// schema is usable as a stable machine interface.
func TestJSONDeterministic(t *testing.T) {
	first, _ := jsonFixtureOutput(t)
	for i := 0; i < 3; i++ {
		if got, _ := jsonFixtureOutput(t); got != first {
			t.Fatalf("-json output diverged on run %d:\n%s\nwant:\n%s", i+2, got, first)
		}
	}
}

// dotEdgeRe matches one DOT edge line as WriteDOT renders it.
var dotEdgeRe = regexp.MustCompile(`^  "[^"]+" -> "[^"]+"( \[style=(dashed|dotted)\])?;$`)

// TestGraphDOT: -graph output parses (header, balanced braces, edge
// grammar) and node declarations appear in sorted order.
func TestGraphDOT(t *testing.T) {
	var buf bytes.Buffer
	if code := runFixture(&buf, callgraphFixture, lint.Analyzers(), modeText, true); code != 0 {
		t.Fatalf("runFixture -graph exit = %d, want 0", code)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if lines[0] != "digraph fedlint {" || lines[len(lines)-1] != "}" {
		t.Fatalf("DOT output not framed as a digraph:\n%s", out)
	}
	if strings.Count(out, "{") != strings.Count(out, "}") {
		t.Fatalf("DOT braces unbalanced:\n%s", out)
	}
	var nodes []string
	for _, line := range lines[1 : len(lines)-1] {
		switch {
		case strings.HasPrefix(line, "  rankdir"):
		case strings.Contains(line, " -> "):
			if !dotEdgeRe.MatchString(line) {
				t.Errorf("malformed edge line: %q", line)
			}
		case strings.HasPrefix(line, `  "`):
			name := line[3 : strings.Index(line[3:], `"`)+3]
			nodes = append(nodes, name)
		default:
			t.Errorf("unrecognized DOT line: %q", line)
		}
	}
	if len(nodes) == 0 {
		t.Fatal("DOT output declares no nodes")
	}
	if !sort.StringsAreSorted(nodes) {
		t.Errorf("node declarations not in sorted order: %v", nodes)
	}
}

// TestGraphDeterministic: two independent -graph runs agree byte for
// byte.
func TestGraphDeterministic(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		if code := runFixture(&buf, callgraphFixture, lint.Analyzers(), modeText, true); code != 0 {
			t.Fatalf("runFixture -graph exit = %d, want 0", code)
		}
		return buf.String()
	}
	first := render()
	if got := render(); got != first {
		t.Fatalf("-graph output diverged:\n%s\nwant:\n%s", got, first)
	}
}

// sarifFixtureOutput runs the privacyflow fixture through the real
// driver path in -sarif mode and returns the parsed log.
func sarifFixtureOutput(t *testing.T) (sarifLog, string, int) {
	t.Helper()
	var buf bytes.Buffer
	code := runFixture(&buf, privacyFixture, lint.Analyzers(), modeSARIF, false)
	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("-sarif output is not valid JSON: %v\n%s", err, buf.String())
	}
	return log, buf.String(), code
}

// TestSARIFSchema: the -sarif log carries the pinned schema/version,
// one run with driver "fedlint", the full rule registry (plus the
// directive pseudo-rule), and every result references a declared rule
// with a physical location.
func TestSARIFSchema(t *testing.T) {
	log, _, code := sarifFixtureOutput(t)
	if code != 1 {
		t.Fatalf("runFixture exit = %d, want 1 (fixture contains deliberate findings)", code)
	}
	if log.Schema != sarifSchema || log.Version != sarifVersion {
		t.Fatalf("schema/version = %q/%q, want %q/%q", log.Schema, log.Version, sarifSchema, sarifVersion)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "fedlint" {
		t.Errorf("driver name = %q, want fedlint", run.Tool.Driver.Name)
	}
	declared := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		if r.ID == "" || r.ShortDescription.Text == "" {
			t.Errorf("rule %+v missing id or description", r)
		}
		declared[r.ID] = true
	}
	for _, a := range lint.Analyzers() {
		if !declared[a.Name] {
			t.Errorf("registered analyzer %s absent from SARIF rules", a.Name)
		}
	}
	if !declared["directive"] {
		t.Error("directive pseudo-rule absent from SARIF rules")
	}
	if len(run.Results) == 0 {
		t.Fatal("fixture run produced no SARIF results")
	}
	sawChain := false
	for _, res := range run.Results {
		if !declared[res.RuleID] {
			t.Errorf("result rule %q not declared by the driver", res.RuleID)
		}
		if res.Level != "error" {
			t.Errorf("result level = %q, want error", res.Level)
		}
		if len(res.Locations) != 1 {
			t.Fatalf("result has %d locations, want 1", len(res.Locations))
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI == "" || strings.Contains(loc.ArtifactLocation.URI, `\`) {
			t.Errorf("artifact URI %q empty or not slash-form", loc.ArtifactLocation.URI)
		}
		if loc.Region.StartLine <= 0 || loc.Region.StartColumn <= 0 {
			t.Errorf("non-positive region %+v", loc.Region)
		}
		if res.RuleID == "privacyflow" && strings.Contains(res.Message.Text, "\nchain: ") {
			sawChain = true
		}
	}
	if !sawChain {
		t.Error("no privacyflow result carries its chain in the message text")
	}
}

// TestSARIFDeterministic: repeated -sarif runs are byte-identical.
func TestSARIFDeterministic(t *testing.T) {
	_, first, _ := sarifFixtureOutput(t)
	for i := 0; i < 3; i++ {
		if _, got, _ := sarifFixtureOutput(t); got != first {
			t.Fatalf("-sarif output diverged on run %d:\n%s\nwant:\n%s", i+2, got, first)
		}
	}
}

// TestSARIFAndTextAgree: the SARIF log describes exactly the findings
// text mode prints, in the same order.
func TestSARIFAndTextAgree(t *testing.T) {
	var text bytes.Buffer
	runFixture(&text, privacyFixture, lint.Analyzers(), modeText, false)
	textLines := strings.Split(strings.TrimSpace(text.String()), "\n")
	log, _, _ := sarifFixtureOutput(t)
	results := log.Runs[0].Results
	if len(results) != len(textLines) {
		t.Fatalf("sarif mode has %d results, text mode %d findings", len(results), len(textLines))
	}
	for i, res := range results {
		msg, _, _ := strings.Cut(res.Message.Text, "\n")
		if !strings.Contains(textLines[i], res.RuleID) || !strings.Contains(textLines[i], msg) {
			t.Errorf("text line %q does not match sarif result %q / %q", textLines[i], res.RuleID, msg)
		}
	}
}

// TestTextAndJSONAgree: both output modes describe the same findings
// at the same positions.
func TestTextAndJSONAgree(t *testing.T) {
	var text bytes.Buffer
	runFixture(&text, privacyFixture, lint.Analyzers(), modeText, false)
	jsonOut, _ := jsonFixtureOutput(t)
	textLines := strings.Split(strings.TrimSpace(text.String()), "\n")
	jsonLines := strings.Split(strings.TrimSpace(jsonOut), "\n")
	if len(textLines) != len(jsonLines) {
		t.Fatalf("text mode has %d findings, json mode %d", len(textLines), len(jsonLines))
	}
	for i, jl := range jsonLines {
		var d diagJSON
		if err := json.Unmarshal([]byte(jl), &d); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !strings.Contains(textLines[i], d.Rule) || !strings.Contains(textLines[i], d.Message) {
			t.Errorf("text line %q does not match json diagnostic %+v", textLines[i], d)
		}
	}
}

// TestSubsetRunNoDeadExport: a subset run of the real module (the
// check.sh telemetry step, fedlint ./internal/obs) sees none of obs's
// callers, so deadexport must stay silent rather than report every obs
// export. The same rule over the whole fixture module does report.
func TestSubsetRunNoDeadExport(t *testing.T) {
	only, err := selectAnalyzers(lint.Analyzers(), "deadexport")
	if err != nil {
		t.Fatalf("selectAnalyzers: %v", err)
	}
	var buf bytes.Buffer
	if code := runModule(&buf, "../..", []string{"./internal/obs"}, only, modeText, false); code != 0 || buf.Len() != 0 {
		t.Errorf("fedlint -only deadexport ./internal/obs: exit %d, output:\n%s", code, buf.String())
	}

	const fixtureModule = "../../internal/lint/testdata/src/deadexport"
	buf.Reset()
	if code := runModule(&buf, fixtureModule, []string{"./..."}, only, modeText, false); code != 1 || !strings.Contains(buf.String(), "deadexport: exported func lib.Dead ") {
		t.Errorf("fedlint -only deadexport over the fixture module: exit %d, want 1 with lib.Dead flagged; output:\n%s", code, buf.String())
	}
	buf.Reset()
	if code := runModule(&buf, fixtureModule, []string{"./lib"}, only, modeText, false); code != 0 || buf.Len() != 0 {
		t.Errorf("fedlint -only deadexport ./lib over the fixture module: exit %d, output:\n%s", code, buf.String())
	}
}
