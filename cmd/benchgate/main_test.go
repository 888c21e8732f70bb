package main

import (
	"strings"
	"testing"
)

// doc builds a BENCH_engine.json document with one linmodel_fits row
// per entry of rows.
func doc(rows ...map[string]any) map[string][]map[string]any {
	return map[string][]map[string]any{"linmodel_fits": rows}
}

func row(shape string, fields ...any) map[string]any {
	r := map[string]any{"shape": shape}
	for i := 0; i < len(fields); i += 2 {
		r[fields[i].(string)] = float64(fields[i+1].(int))
	}
	return r
}

func TestGate(t *testing.T) {
	cases := []struct {
		name        string
		base, fresh map[string][]map[string]any
		nsTol       float64
		want        int
		wantLine    string
	}{
		{
			name:  "unchanged",
			base:  doc(row("a", "ns_per_op", 100, "allocs_per_op", 10)),
			fresh: doc(row("a", "ns_per_op", 100, "allocs_per_op", 10)),
			nsTol: 0.15,
		},
		{
			name:     "baseline row not measured",
			base:     doc(row("a", "ns_per_op", 100, "allocs_per_op", 10), row("b", "ns_per_op", 100, "allocs_per_op", 10)),
			fresh:    doc(row("a", "ns_per_op", 100, "allocs_per_op", 10)),
			nsTol:    0.15,
			want:     1,
			wantLine: "MISSING linmodel_fits/b",
		},
		{
			name:     "renamed row",
			base:     doc(row("a", "ns_per_op", 100, "allocs_per_op", 10)),
			fresh:    doc(row("a2", "ns_per_op", 100, "allocs_per_op", 10)),
			nsTol:    0.15,
			want:     1,
			wantLine: "no baseline row, skipping",
		},
		{
			name:  "zero-alloc baseline holds",
			base:  doc(row("a", "ns_per_op", 100, "allocs_per_op", 0)),
			fresh: doc(row("a", "ns_per_op", 100, "allocs_per_op", 0)),
			nsTol: 0.15,
		},
		{
			name:     "zero-alloc baseline, one alloc",
			base:     doc(row("a", "ns_per_op", 100, "allocs_per_op", 0)),
			fresh:    doc(row("a", "ns_per_op", 100, "allocs_per_op", 1)),
			nsTol:    0.15,
			want:     1,
			wantLine: "allocs_per_op: 0 -> 1 (baseline is zero)",
		},
		{
			name:  "allocs within tolerance",
			base:  doc(row("a", "ns_per_op", 100, "allocs_per_op", 100)),
			fresh: doc(row("a", "ns_per_op", 100, "allocs_per_op", 115)),
			nsTol: 0.15,
		},
		{
			name:     "allocs beyond tolerance",
			base:     doc(row("a", "ns_per_op", 100, "allocs_per_op", 100)),
			fresh:    doc(row("a", "ns_per_op", 100, "allocs_per_op", 116)),
			nsTol:    0.15,
			want:     1,
			wantLine: "allocs_per_op: 100 -> 116",
		},
		{
			name:     "ns beyond tolerance, no quartiles",
			base:     doc(row("a", "ns_per_op", 1000, "allocs_per_op", 10)),
			fresh:    doc(row("a", "ns_per_op", 1200, "allocs_per_op", 10)),
			nsTol:    0.15,
			want:     1,
			wantLine: "ns_per_op: 1000 -> 1200 (1.20x > 1.15x allowed)",
		},
		{
			name:  "ns beyond tolerance but inside the baseline IQR",
			base:  doc(row("a", "ns_per_op", 1000, "ns_per_op_q1", 900, "ns_per_op_q3", 1300, "allocs_per_op", 10)),
			fresh: doc(row("a", "ns_per_op", 1350, "allocs_per_op", 10)),
			nsTol: 0.15,
		},
		{
			name:     "ns beyond tolerance and the baseline IQR",
			base:     doc(row("a", "ns_per_op", 1000, "ns_per_op_q1", 900, "ns_per_op_q3", 1300, "allocs_per_op", 10)),
			fresh:    doc(row("a", "ns_per_op", 1450, "allocs_per_op", 10)),
			nsTol:    0.15,
			want:     1,
			wantLine: "ns_per_op: 1000 -> 1450 (1.45x > 1.40x allowed)",
		},
		{
			name:     "narrow IQR leaves the tolerance in charge",
			base:     doc(row("a", "ns_per_op", 1000, "ns_per_op_q1", 990, "ns_per_op_q3", 1010, "allocs_per_op", 10)),
			fresh:    doc(row("a", "ns_per_op", 1160, "allocs_per_op", 10)),
			nsTol:    0.15,
			want:     1,
			wantLine: "(1.16x > 1.15x allowed)",
		},
		{
			name:  "ns gate disabled",
			base:  doc(row("a", "ns_per_op", 1000, "allocs_per_op", 10)),
			fresh: doc(row("a", "ns_per_op", 5000, "allocs_per_op", 10)),
		},
		{
			name:  "ns gate disabled, allocs still gated",
			base:  doc(row("a", "ns_per_op", 1000, "allocs_per_op", 10)),
			fresh: doc(row("a", "ns_per_op", 5000, "allocs_per_op", 20)),
			want:  1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			if got := gate(&out, c.base, c.fresh, c.nsTol, 0.15); got != c.want {
				t.Errorf("gate = %d, want %d; output:\n%s", got, c.want, out.String())
			}
			if !strings.Contains(out.String(), c.wantLine) {
				t.Errorf("output lacks %q:\n%s", c.wantLine, out.String())
			}
		})
	}
}

// TestGateCommittedBaseline gates the committed BENCH_engine.json
// against itself: every row must pass and none may go missing.
func TestGateCommittedBaseline(t *testing.T) {
	base, err := load("../../BENCH_engine.json")
	if err != nil {
		t.Fatal(err)
	}
	if bad := gate(new(strings.Builder), base, base, 0.15, 0.15); bad != 0 {
		t.Fatalf("the committed baseline fails against itself: %d row(s)", bad)
	}
	for _, sec := range sections {
		if len(base[sec.name]) == 0 {
			t.Errorf("section %s has no rows", sec.name)
		}
	}
}
