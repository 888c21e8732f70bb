// Command benchgate compares a freshly measured BENCH_engine.json
// against the committed baseline and fails when any benchmark row
// regressed beyond the tolerated ratio — the regression gate behind
// scripts/bench.sh -gate and the CI bench gate step.
//
// Usage:
//
//	benchgate -base BENCH_engine.json -new /tmp/bench.json [-ns 0.15] [-allocs 0.15]
//
// Both thresholds are fractional (0.15 = +15%); setting one to 0
// disables that dimension. A field regressed when its new median
// exceeds the baseline by more than the tolerance and, where the
// baseline row records the field's quartiles (ns_per_op_q1 and
// ns_per_op_q3), by more than their distance too: a change inside the
// baseline's own spread is not resolved, as in fedbench -compare. A
// zero baseline (a 0-alloc row) gates any positive new value. Exit
// status 1 means at least one row regressed or a baseline row was not
// measured (a renamed or deleted benchmark); every offending row is
// printed with its baseline, new value, and ratio.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// sections maps each BENCH_engine.json list to the field identifying
// its rows.
var sections = []struct{ name, key string }{
	{"engine_rounds", "q"},
	{"wire_formats", "wire"},
	{"recorder_overhead", "recorder"},
	{"pipeline_dag", "graph"},
	{"tree_fits", "shape"},
	{"linmodel_fits", "shape"},
	{"meta_models", "model"},
}

func main() {
	basePath := flag.String("base", "BENCH_engine.json", "committed baseline JSON")
	newPath := flag.String("new", "", "freshly measured JSON to gate")
	nsTol := flag.Float64("ns", 0.15, "tolerated ns_per_op regression ratio (0 disables)")
	allocTol := flag.Float64("allocs", 0.15, "tolerated allocs_per_op regression ratio (0 disables)")
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -new is required")
		os.Exit(2)
	}

	base, err := load(*basePath)
	if err != nil {
		fatal(err)
	}
	fresh, err := load(*newPath)
	if err != nil {
		fatal(err)
	}

	var report strings.Builder
	bad := gate(&report, base, fresh, *nsTol, *allocTol)
	fmt.Print(report.String())
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d benchmark row(s) regressed beyond tolerance or not measured\n", bad)
		os.Exit(1)
	}
	fmt.Println("benchgate: all rows within tolerance")
}

// gate compares every section of fresh against base, writes one line
// per skipped, missing or regressed row to w, and returns the number
// of failures: regressed fields plus baseline rows that fresh does not
// measure.
func gate(w *strings.Builder, base, fresh map[string][]map[string]any, nsTol, allocTol float64) int {
	bad := 0
	for _, sec := range sections {
		baseRows := index(base[sec.name], sec.key)
		for _, row := range fresh[sec.name] {
			id := ident(row, sec.key)
			b, ok := baseRows[id]
			if !ok {
				// A new benchmark has no baseline yet; it starts gating
				// once bench.sh refreshes the committed JSON.
				fmt.Fprintf(w, "benchgate: %s/%s: no baseline row, skipping\n", sec.name, id)
				continue
			}
			bad += check(w, sec.name, id, "ns_per_op", b, row, nsTol)
			bad += check(w, sec.name, id, "allocs_per_op", b, row, allocTol)
		}
		for _, id := range missing(baseRows, fresh[sec.name], sec.key) {
			fmt.Fprintf(w, "benchgate: MISSING %s/%s: baseline row not measured\n", sec.name, id)
			bad++
		}
	}
	return bad
}

// check gates one field of one row and returns 1 if it regressed. The
// allowed rise is tol of the baseline, or the distance between the
// baseline's quartiles (field_q1, field_q3) when the row records them
// and it is larger. A zero baseline allows no rise at all.
func check(w *strings.Builder, section, id, field string, base, fresh map[string]any, tol float64) int {
	if tol <= 0 {
		return 0
	}
	bv, bok := num(base[field])
	nv, nok := num(fresh[field])
	if !bok || !nok {
		return 0
	}
	allowed := tol * bv
	q1, ok1 := num(base[field+"_q1"])
	q3, ok3 := num(base[field+"_q3"])
	if ok1 && ok3 && q3-q1 > allowed {
		allowed = q3 - q1
	}
	if nv-bv <= allowed {
		return 0
	}
	if bv <= 0 {
		fmt.Fprintf(w, "benchgate: REGRESSION %s/%s %s: %.0f -> %.0f (baseline is zero)\n",
			section, id, field, bv, nv)
	} else {
		fmt.Fprintf(w, "benchgate: REGRESSION %s/%s %s: %.0f -> %.0f (%.2fx > %.2fx allowed)\n",
			section, id, field, bv, nv, nv/bv, 1+allowed/bv)
	}
	return 1
}

func load(path string) (map[string][]map[string]any, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchgate: %w", err)
	}
	var doc map[string][]map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("benchgate: parsing %s: %w", path, err)
	}
	return doc, nil
}

func index(rows []map[string]any, key string) map[string]map[string]any {
	out := make(map[string]map[string]any, len(rows))
	for _, row := range rows {
		out[ident(row, key)] = row
	}
	return out
}

func ident(row map[string]any, key string) string {
	switch v := row[key].(type) {
	case string:
		return v
	case float64:
		return fmt.Sprintf("%s=%g", key, v)
	default:
		return fmt.Sprintf("%s=%v", key, v)
	}
}

func num(v any) (float64, bool) {
	f, ok := v.(float64)
	return f, ok
}

func missing(baseRows map[string]map[string]any, fresh []map[string]any, key string) []string {
	seen := make(map[string]bool, len(fresh))
	for _, row := range fresh {
		seen[ident(row, key)] = true
	}
	var out []string
	for id := range baseRows {
		if !seen[id] {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
