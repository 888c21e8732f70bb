package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"fedforecaster/internal/core"
	"fedforecaster/internal/fedtrace"
	"fedforecaster/internal/obs"
)

const (
	kbPath    = "../../kb.json"
	benchPath = "../../BENCHMARK.json"
)

// The wrappers must not change what a run computes or bills: a wrapped
// RunWithServer run matches a plain Engine.Run bit for bit. The v1+q8
// wire makes the test fail if the transport wrapper stops forwarding
// Wire(), since the server would then bill v0 PayloadSize estimates.
func TestTimedWrappersKeepResult(t *testing.T) {
	w := workload{
		name: "wrapped", dataset: "nasdaq_Brazil_Saving_Deposits1",
		iters: 4, batch: 2, featSel: true, wire: mustWire("v1+q8"),
	}
	ins, err := w.corpus(1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := core.NewEngine(nil, w.engineConfig(ins[0].seed)).Run(ins[0].clients)
	if err != nil {
		t.Fatal(err)
	}
	p := &probe{rec: fedtrace.NewCollector(), calls: &callLog{}}
	wrapped, err := w.run(ins[0], nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(wrapped, plain); err != nil {
		t.Fatal(err)
	}
	if len(p.calls.snapshot()) == 0 {
		t.Fatal("the wrappers timed no calls")
	}
}

// The phase spans explain the run, and every call a wrapper timed lies
// inside a round span of its own request kind.
func TestLedgerReconciles(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e, err := setUp(w, 3, kbPath)
			if err != nil {
				t.Fatal(err)
			}
			p := &probe{rec: fedtrace.NewCollector(), calls: &callLog{}}
			res, err := w.run(e.inputs[1], e.meta, p)
			if err != nil {
				t.Fatal(err)
			}
			events, calls := p.rec.Events(), p.calls.snapshot()
			led := newLedger()
			if err := led.add(events, calls, res.Comms); err != nil {
				t.Fatal(err)
			}
			if u := led.unexplained(); u >= 0.05 || u < 0 {
				t.Errorf("unexplained share %.4f, want within [0, 0.05)", u)
			}
			rounds := roundSpans(obs.BuildSpanForest(events))
			if len(rounds) == 0 {
				t.Fatal("no round spans")
			}
			for _, c := range calls {
				if !insideRound(rounds, c) {
					t.Errorf("%s call to client %d at [%d, %d] lies in no %s round span", c.kind, c.client, c.startNS, c.endNS, c.kind)
				}
			}
		})
	}
}

func roundSpans(forest []*obs.SpanNode) []*obs.SpanNode {
	var out []*obs.SpanNode
	var walk func([]*obs.SpanNode)
	walk = func(ns []*obs.SpanNode) {
		for _, n := range ns {
			if n.Kind == obs.SpanRound {
				out = append(out, n)
				continue
			}
			walk(n.Children)
		}
	}
	walk(forest)
	return out
}

func insideRound(rounds []*obs.SpanNode, c call) bool {
	for _, r := range rounds {
		if r.Name == c.kind && r.StartNS <= c.startNS && c.endNS <= r.EndNS {
			return true
		}
	}
	return false
}

// Every metric BENCHMARK.json declares is reported, with its unit, and
// nothing else is.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	s, err := loadSpec(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	w, err := findWorkload("graph-cv")
	if err != nil {
		t.Fatal(err)
	}
	e, err := setUp(w, 2, kbPath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.loop(e.inputs[:2], 0)
	if err != nil {
		t.Fatal(err)
	}
	e2e, err := e.endToEnd(p)
	if err != nil {
		t.Fatal(err)
	}
	layer, attempted, failed, err := e.traced(2)
	if err != nil {
		t.Fatal(err)
	}
	if attempted != 4 || failed != 0 {
		t.Errorf("traced pass attempted %d runs with %d failed, want 4 and 0", attempted, failed)
	}
	sameMetrics(t, "end_to_end", e2e, s.EndToEnd)
	sameMetrics(t, "per_layer", layer, s.PerLayer)
}

func sameMetrics(t *testing.T, section string, got []metric, want []metricDef) {
	t.Helper()
	render := func(name, unit string) string { return name + " [" + unit + "]" }
	var g, w []string
	for _, m := range got {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("%s: %s = %v", section, m.name, m.value)
		}
		g = append(g, render(m.name, m.unit))
	}
	for _, d := range want {
		w = append(w, render(d.Name, d.Unit))
	}
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Fatalf("%s: reported %v, BENCHMARK.json declares %v", section, g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: reported %v, BENCHMARK.json declares %v", section, g, w)
		}
	}
}

// Each workload's corpus is generated the same way every time, its
// federations differ, and they have the stated shape.
func TestInputsDeterministic(t *testing.T) {
	shapes := map[string]struct{ clients, total int }{
		"paper-seq":    {5, 1095},
		"batch-wide":   {15, 1800},
		"graph-cv":     {5, 812},
		"chaos-rounds": {10, 6000},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			want, ok := shapes[w.name]
			if !ok {
				t.Fatalf("no stated shape for workload %s", w.name)
			}
			a, err := w.corpus(3)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.corpus(3)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if ha, hb := hashInput(a[i]), hashInput(b[i]); ha != hb {
					t.Errorf("federation %d: hashes %x and %x from two generations", i, ha, hb)
				}
				total := 0
				for _, s := range a[i].clients {
					total += s.Len()
				}
				if len(a[i].clients) != want.clients || total != want.total {
					t.Errorf("federation %d: %d clients with %d points, want %d with %d", i, len(a[i].clients), total, want.clients, want.total)
				}
			}
			if hashInput(a[0]) == hashInput(a[1]) {
				t.Error("federations 0 and 1 are identical")
			}
		})
	}
}

// The quantile estimate is exact on a sample symmetric about its
// middle, lands near the order statistic at q, and passes a single
// sample through.
func TestQuantile(t *testing.T) {
	xs := make([]float64, 61)
	for i := range xs {
		xs[i] = float64(60 - i)
	}
	if got := quantile(xs, 0.5); math.Abs(got-30) > 1e-9 {
		t.Errorf("median of 0..60 = %v, want 30", got)
	}
	if got := quantile(xs, 0.9); got < 53 || got > 55 {
		t.Errorf("p90 of 0..60 = %v, want within [53, 55]", got)
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("p90 of {7} = %v, want 7", got)
	}
}

// One slow kernel reading barely moves the scale factors of the runs
// around it: each factor is a median over a window of readings.
func TestRefFactorsIgnoreOneOutlier(t *testing.T) {
	rs := make([]refReading, 40)
	for i := range rs {
		rs[i] = refReading{wallS: refNominalS / 2, cpuS: refNominalCPUS}
	}
	rs[20].wallS = 1
	wall, cpu := refFactors(rs)
	for i := range rs {
		if math.Abs(wall[i]-2) > 2e-3 || math.Abs(cpu[i]-1) > 1e-3 {
			t.Fatalf("reading %d: factors %v and %v, want 2 and 1", i, wall[i], cpu[i])
		}
	}
}

// A seed rotates the corpus: input i is federation (seed+i) mod n.
func TestOrderRotates(t *testing.T) {
	corpus := make([]input, 5)
	for j := range corpus {
		corpus[j].seed = int64(j)
	}
	for _, seed := range []int64{0, 3, 7, -2} {
		got := order(corpus, seed)
		for i, in := range got {
			if want := ((seed+int64(i))%5 + 5) % 5; in.seed != want {
				t.Errorf("seed %d: input %d is federation %d, want %d", seed, i, in.seed, want)
			}
		}
	}
}

func hashInput(in input) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range in.clients {
		h.Write([]byte(s.Name))
		for _, v := range s.Values {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
