package fedtrace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"fedforecaster/internal/obs"
)

// WriteJSON emits the report as indented JSON (the CI trace-smoke
// contract: machine consumers assert on .rounds and .critical_path).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText emits the human report: per-phase, per-round, and
// per-client breakdowns, the straggler ranking, and the waste summary.
// Renderers build the full report in memory and hand the caller one
// write, so a sink failure surfaces exactly once.
func (r *Report) WriteText(w io.Writer) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "trace %s: run %s%s\n", orDash(r.TraceID), fmtNS(r.RunDurationNS), errSuffix(r.RunErr))

	tw := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	fmt.Fprintln(&buf, "\nphases:")
	ftab(tw, "  name\tduration\trounds\tattempts\tbytes\n")
	for _, p := range r.Phases {
		ftab(tw, "  %s\t%s\t%d\t%d\t%d%s\n", p.Name, fmtNS(p.DurationNS), p.Rounds, p.Attempts, p.Bytes, errSuffix(p.Err))
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(&buf, "\nrounds:")
	ftab(tw, "  #\tphase\tkind\tsurvivors\tduration\tbytes\tcritical path\n")
	for _, rd := range r.Rounds {
		crit := "-"
		if rd.CriticalClient >= 0 {
			crit = fmt.Sprintf("%s (%s, %.0f%%)", strings.Join(rd.CriticalPath, " > "), fmtNS(rd.CriticalNS), 100*rd.CriticalShare)
		}
		ftab(tw, "  %d\t%s\t%s\t%d/%d\t%s\t%d\t%s%s\n",
			rd.Index, rd.Phase, rd.Kind, rd.Survivors, rd.Clients, fmtNS(rd.DurationNS), rd.Bytes, crit, errSuffix(rd.Err))
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(&buf, "\nclients:")
	ftab(tw, "  id\tcalls\tattempts\tretries\tdrops\tbytes\tbusy\tcompute\tchaos\n")
	for _, c := range r.Clients {
		ftab(tw, "  %d\t%d\t%d\t%d\t%d\t%d\t%s\t%s\t%s\n",
			c.Client, c.Calls, c.Attempts, c.Retries, c.Drops, c.Bytes, fmtNS(c.BusyNS), fmtNS(c.ComputeNS), fmtChaos(c.Chaos))
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(&buf, "\nstragglers:")
	if len(r.Stragglers) == 0 {
		fmt.Fprintln(&buf, "  none: no round had an attributable critical path")
	}
	for _, s := range r.Stragglers {
		fmt.Fprintf(&buf, "  client %d: critical in %d/%d rounds (%.1f%% of round time)%s\n",
			s.Client, s.CriticalRounds, len(r.Rounds), 100*s.CriticalShare, chaosSuffix(s.Chaos))
	}

	if r.Waste != nil {
		ws := r.Waste
		fmt.Fprintf(&buf, "\nwaste: %d/%d calls (%d bytes) spent on failed or retried attempts across %d rounds; %d bytes down, %d up\n",
			ws.WastedCalls, ws.Calls, ws.WastedBytes, ws.Rounds, ws.BytesDown, ws.BytesUp)
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// WriteWaterfall renders the span forest as a time-aligned text
// waterfall: each span one row, indented by depth, with a bar scaled
// to the run's duration.
func (r *Report) WriteWaterfall(w io.Writer) error {
	const width = 64
	var buf bytes.Buffer
	var t0, t1 int64
	walkSpans(r.Forest, func(n *spanAt) {
		if t0 == 0 || n.node.StartNS < t0 {
			t0 = n.node.StartNS
		}
		if end := n.node.StartNS + n.node.DurationNS(); end > t1 {
			t1 = end
		}
	})
	span := t1 - t0
	if span <= 0 {
		span = 1
	}
	walkSpans(r.Forest, func(n *spanAt) {
		start := int(int64(width) * (n.node.StartNS - t0) / span)
		bar := int(int64(width) * n.node.DurationNS() / span)
		if bar < 1 {
			bar = 1
		}
		if start+bar > width {
			bar = width - start
		}
		line := strings.Repeat(" ", start) + strings.Repeat("#", bar)
		fmt.Fprintf(&buf, "%-*s |%-*s| %s\n", 36, strings.Repeat("  ", n.depth)+spanLabel(n), width, line, fmtNS(n.node.DurationNS()))
	})
	_, err := w.Write(buf.Bytes())
	return err
}

// WriteStructure emits the run's causal structure with all timing
// stripped: the span tree (kind, name, seq, client, error state). It
// is byte-identical across two runs at the same seed — identity is
// position-derived, never clock-derived. The timing-derived
// attribution (critical paths, straggler ranking) stays in WriteText
// and WriteJSON.
func (r *Report) WriteStructure(w io.Writer) error {
	var buf bytes.Buffer
	walkSpans(r.Forest, func(n *spanAt) {
		fmt.Fprintf(&buf, "%s%s\n", strings.Repeat("  ", n.depth), spanLabel(n))
	})
	_, err := w.Write(buf.Bytes())
	return err
}

// ftab writes one formatted table line into a tabwriter whose
// underlying writer is the renderer's bytes.Buffer.
func ftab(tw *tabwriter.Writer, format string, args ...any) {
	//lint:allow errdrop the tabwriter flushes into a bytes.Buffer; its writes cannot fail
	fmt.Fprintf(tw, format, args...)
}

type spanAt struct {
	node  *obs.SpanNode
	depth int
}

func spanLabel(n *spanAt) string {
	l := n.node.Kind
	if n.node.Name != "" && n.node.Name != n.node.Kind {
		l += " " + n.node.Name
	}
	if n.node.Kind != "run" && n.node.Kind != "phase" {
		l += fmt.Sprintf(" seq=%d", n.node.Seq)
	}
	if n.node.Client >= 0 {
		l += fmt.Sprintf(" client=%d", n.node.Client)
	}
	if n.node.Err != "" {
		l += fmt.Sprintf(" err=%q", n.node.Err)
	}
	return l
}

func walkSpans(roots []*obs.SpanNode, fn func(*spanAt)) {
	var rec func(n *obs.SpanNode, depth int)
	rec = func(n *obs.SpanNode, depth int) {
		fn(&spanAt{node: n, depth: depth})
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	for _, root := range roots {
		rec(root, 0)
	}
}

func fmtNS(ns int64) string {
	if ns == 0 {
		return "0s"
	}
	return time.Duration(ns).Round(10 * time.Microsecond).String()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func errSuffix(err string) string {
	if err == "" {
		return ""
	}
	return fmt.Sprintf("  err=%q", err)
}

func fmtChaos(m map[string]int) string {
	if len(m) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s×%d", k, m[k]))
	}
	return strings.Join(parts, ",")
}

func chaosSuffix(m map[string]int) string {
	if len(m) == 0 {
		return ""
	}
	return " [" + fmtChaos(m) + "]"
}
