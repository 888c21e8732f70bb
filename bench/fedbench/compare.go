package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json fedbench reads.
type spec struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if s.RunSeconds <= 0 || len(s.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no run_seconds or end_to_end metrics", path)
	}
	return &s, nil
}

// readResults reads the untraced (trace 0) lines of a result file,
// keyed workload → metric → one value per line.
func readResults(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var t tagged
		if err := json.Unmarshal(line, &t); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if t.Workload == "" {
			return nil, fmt.Errorf("%s:%d: line has no workload tag", path, n)
		}
		if t.Trace != 0 {
			continue
		}
		if out[t.Workload] == nil {
			out[t.Workload] = map[string][]float64{}
		}
		for name, v := range t.Metrics {
			out[t.Workload][name] = append(out[t.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints one row per (workload, end-to-end metric): the
// median of each file, the change, the bound, and a verdict. A metric
// worse than its bound is "worse"; one whose spread in a (the distance
// between its quartiles, over the median) exceeds the bound is
// "unresolved". It reports whether any metric got worse.
func compareFiles(specPath, aPath, bPath string) (bool, error) {
	s, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readResults(aPath)
	if err != nil {
		return false, err
	}
	b, err := readResults(bPath)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("%s: no untraced results", aPath)
	}
	worse := false
	fmt.Printf("%-14s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "median a", "median b", "change", "bound", "verdict")
	for _, wl := range names {
		for _, m := range s.EndToEnd {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("workload %s: metric %s missing from %s or %s", wl, m.Name, aPath, bPath)
			}
			ma, mb := quantile(va, 0.5), quantile(vb, 0.5)
			change := relChange(ma, mb)
			verdict := "ok"
			switch {
			case (m.Better == "lower" && change > m.Bound) || (m.Better == "higher" && -change > m.Bound):
				verdict = "worse"
				worse = true
			case spread(va) > m.Bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-14s %-18s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				wl, m.Name, ma, mb, 100*change, 100*m.Bound, verdict)
		}
	}
	return worse, nil
}

// relChange is (b − a)/|a|; equal values, including two zeros, are no
// change.
func relChange(a, b float64) float64 {
	if d := b - a; d != 0 {
		return d / math.Abs(a)
	}
	return 0
}

// spread is the interquartile distance over the median.
func spread(xs []float64) float64 {
	med := quantile(xs, 0.5)
	if med == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(med)
}
