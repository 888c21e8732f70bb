package main

import (
	"fmt"

	"fedforecaster/internal/core"
	"fedforecaster/internal/fedtrace"
	"fedforecaster/internal/fl"
	"fedforecaster/internal/metalearn"
	"fedforecaster/internal/search"
	"fedforecaster/internal/synth"
	"fedforecaster/internal/timeseries"
)

// workload is one input family plus the engine settings it runs
// under. Each workload spends most of its time in a different layer;
// README.md records why each was chosen and which layer it stresses.
type workload struct {
	name    string
	dataset string  // a synth.EvalDatasets name
	scale   float64 // series length factor (synth.EvalDataset.Scaled); 0 keeps the paper's size
	// meta trains the "Random Forest" meta-model on kb.json at set-up
	// and runs with K=3; false is a cold start over the whole space.
	meta bool
	// algos restricts the Table 2 space to these algorithms (nil = all).
	algos     []string
	iters     int
	batch     int
	featSel   bool
	structure bool
	cvFolds   int
	wire      fl.WireOpts
	// chaos wraps the transport in fl.NewChaos: 2% transient faults on
	// every client, the last client dies after 30 calls, and the engine
	// retries twice and needs a 0.8 quorum.
	chaos bool
}

var workloads = []workload{
	{
		name: "paper-seq", dataset: "USBirthsDaily", scale: 0.15,
		meta: true, iters: 24, batch: 1, featSel: true,
	},
	{
		name: "batch-wide", dataset: "nasdaq_Brazil_Pr_Base_Financial_Rate", scale: 0.1,
		iters: 48, batch: 8, wire: mustWire("v1+q8"),
	},
	{
		name: "graph-cv", dataset: "nasdaq_Brazil_Saving_Deposits1",
		algos: []string{search.AlgoLasso, search.AlgoHuber},
		iters: 12, batch: 4, structure: true, cvFolds: 3, wire: mustWire("v1"),
	},
	{
		name: "chaos-rounds", dataset: "Energy Select Sector ETF", scale: 0.1,
		algos: []string{search.AlgoLasso, search.AlgoHuber},
		iters: 40, batch: 1, wire: mustWire("v1"), chaos: true,
	},
}

// mustWire parses a wire spec from the workload table; a bad spec
// there is a bug, not an input error.
func mustWire(s string) fl.WireOpts {
	w, err := fl.ParseWireOpts(s)
	if err != nil {
		panic(err)
	}
	return w
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// input is one federation: the client series and the seed that
// generated them, which also seeds the engine run over them.
type input struct {
	seed    int64
	clients []*timeseries.Series
}

func (w workload) evalDataset() (synth.EvalDataset, error) {
	for _, d := range synth.EvalDatasets() {
		if d.Name != w.dataset {
			continue
		}
		if w.scale > 0 {
			d = d.Scaled(w.scale)
		}
		return d, nil
	}
	return synth.EvalDataset{}, fmt.Errorf("workload %s: unknown dataset %q", w.name, w.dataset)
}

// corpus generates the workload's n federations: federation j is its
// Table 3 dataset generated with the dataset's own seed plus j, so
// federation 0 is the dataset itself.
func (w workload) corpus(n int) ([]input, error) {
	d, err := w.evalDataset()
	if err != nil {
		return nil, err
	}
	base := d.Seed
	out := make([]input, n)
	for j := range out {
		d.Seed = base + int64(j)
		clients, _, err := d.Generate()
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, err)
		}
		out[j] = input{seed: d.Seed, clients: clients}
	}
	return out, nil
}

// order is the run's inputs for a workload seed: the corpus rotated so
// that input i is federation (seed+i) mod len(corpus).
func order(corpus []input, seed int64) []input {
	n := int64(len(corpus))
	start := int(((seed % n) + n) % n)
	return append(append([]input(nil), corpus[start:]...), corpus[:start]...)
}

func (w workload) engineConfig(seed int64) core.EngineConfig {
	cfg := core.DefaultEngineConfig()
	cfg.Seed = seed
	cfg.Iterations = w.iters
	cfg.BatchSize = w.batch
	cfg.FeatureSelection = w.featSel
	cfg.StructureSearch = w.structure
	cfg.Wire = w.wire
	if w.cvFolds > 1 {
		cfg.Splits.CVFolds = w.cvFolds
		cfg.Splits.ValidationBlocks = 1
	}
	for _, a := range w.algos {
		if sp, ok := search.SpaceFor(search.DefaultSpaces(), a); ok {
			cfg.Spaces = append(cfg.Spaces, sp)
		}
	}
	if w.chaos {
		cfg.MaxRetries = 2
		cfg.MinClientFraction = 0.8
	}
	return cfg
}

// probe is the traced pass's instrumentation, all of it outside the
// engine: the recorder the engine's own spans go to, and the log the
// timing wrappers append to.
type probe struct {
	rec   *fedtrace.Collector
	calls *callLog
}

// run performs one engine run over the input with the same public
// calls Engine.Run makes (fresh ClientNodes, an in-process wire
// transport, NewServer, RunWithServer); meta is nil for a cold start.
// With a probe, the nodes and the transport are wrapped in timing
// wrappers and the engine records spans.
func (w workload) run(in input, meta *metalearn.MetaModel, p *probe) (*core.Result, error) {
	cfg := w.engineConfig(in.seed)
	nodes := make([]fl.Client, len(in.clients))
	for i, s := range in.clients {
		node := core.NewClientNode(s, in.seed+int64(i)*101)
		nodes[i] = node
		if p != nil {
			nodes[i] = &timedClient{Client: node.WithObs(p.rec, i), id: i, log: p.calls}
		}
	}
	inproc := fl.NewInProcWire(nodes, cfg.Wire)
	var t fl.Transport = inproc
	if p != nil {
		cfg.Recorder = p.rec
		t = &timedTransport{WireTransport: inproc, log: p.calls}
	}
	if w.chaos {
		ct := fl.NewChaos(t, in.seed)
		for i := range nodes {
			f := fl.ClientFaults{TransientProb: 0.02}
			if i == len(nodes)-1 {
				f.DieAfter = 30
			}
			ct.SetFaults(i, f)
		}
		t = ct
	}
	srv := fl.NewServer(t)
	defer srv.Close()
	return core.NewEngine(meta, cfg).RunWithServer(srv)
}
