// Command fedforecaster runs the automated federated forecasting
// engine on a dataset: a CSV file partitioned into N clients, or a
// named synthetic evaluation dataset.
//
// Usage:
//
//	fedforecaster -csv data.csv -clients 10 -iters 24
//	fedforecaster -dataset USBirthsDaily -scale 0.05 -iters 8
//	fedforecaster -dataset BOE-XUDLERD -show-metafeatures
//	fedforecaster -kb kb.json -dataset SunSpotDaily        # with meta-learning
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"fedforecaster"
	"fedforecaster/internal/fedtrace"
	"fedforecaster/internal/metafeat"
	"fedforecaster/internal/obs"
	"fedforecaster/internal/synth"
	"fedforecaster/internal/timeseries"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fedforecaster: ")

	var (
		csvPath  = flag.String("csv", "", "CSV file with the series (one value column or timestamp,value)")
		dataset  = flag.String("dataset", "", "named synthetic evaluation dataset (see -list)")
		list     = flag.Bool("list", false, "list the available synthetic datasets and exit")
		clients  = flag.Int("clients", 5, "number of federated clients (CSV mode)")
		scale    = flag.Float64("scale", 0.05, "length scale for synthetic datasets")
		iters    = flag.Int("iters", 24, "optimization budget in federated rounds")
		topK     = flag.Int("topk", 3, "meta-model recommendations forming the search space")
		seed     = flag.Int64("seed", 1, "random seed driving every stochastic component (0 = seed from the clock)")
		kbPath   = flag.String("kb", "", "knowledge base JSON enabling meta-learning")
		metaName = flag.String("metamodel", "Random Forest", "meta-model classifier name")
		showMeta = flag.Bool("show-metafeatures", false, "print the Table 1 aggregated meta-features and exit")
		quiet    = flag.Bool("quiet", false, "suppress the human-readable phase trace (-obs-addr/-trace-out sinks stay on)")

		batch       = flag.Int("batch", 1, "candidate configurations per evaluation round (1 = paper's sequential loop; >1 enables constant-liar q-EI batching)")
		space       = flag.String("space", "chain", "search space over pipeline shape: chain (the paper's fixed engineer→model pipeline) or graph (BO also proposes smoothing/differencing pre-transforms and a merged second regressor arm)")
		cvFolds     = flag.Int("cv", 1, "rolling-origin cross-validation folds over the validation span (1 = the paper's single split)")
		cvBlocks    = flag.Int("cv-blocks", 1, "validation blocks per CV fold window (only with -cv > 1)")
		callTimeout = flag.Duration("call-timeout", 0, "per-client call deadline, e.g. 30s (0 = wait forever)")
		maxRetries  = flag.Int("max-retries", 0, "retries per failed client call (exponential backoff + jitter)")
		minClients  = flag.Float64("min-client-fraction", 0, "quorum fraction in (0,1]: rounds succeed when ≥ this fraction of clients respond (0 = require all)")
		wire        = flag.String("wire", "v1", "wire format: v1 (lossless) or v1+q8 (int8 payload quantization)")

		obsAddr  = flag.String("obs-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. :6060; empty = off)")
		traceOut = flag.String("trace-out", "", "write the typed telemetry event stream as JSON lines to this file (empty = off)")
		report   = flag.Bool("report", false, "print the fedtrace causal summary (phases, rounds, critical paths, stragglers) after the run")
	)
	flag.Parse()

	// Nondeterminism is an explicit opt-in, and lives only here in
	// cmd/: library code must receive its seed. fedlint's seededrand
	// and walltime rules enforce that split.
	if *seed == 0 {
		*seed = time.Now().UnixNano()
		fmt.Printf("seeding from clock: -seed %d reproduces this run\n", *seed)
	}

	if *list {
		for _, d := range synth.EvalDatasets() {
			fmt.Printf("%-40s len=%-6d clients=%d\n", d.Name, d.Length, d.Clients)
		}
		return
	}

	splits, err := loadClients(*csvPath, *dataset, *clients, *scale, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset loaded: %d clients, %d total observations\n", len(splits), totalLen(splits))

	if *showMeta {
		agg, _ := metafeat.ComputeAggregated(splits)
		names := metafeat.VectorNames()
		vec := agg.Vector()
		fmt.Println("Table 1 aggregated meta-features:")
		for i, n := range names {
			fmt.Printf("  %-24s %12.5g\n", n, vec[i])
		}
		return
	}

	if *minClients < 0 || *minClients > 1 {
		log.Fatalf("-min-client-fraction %v out of range (0,1]", *minClients)
	}
	if *space != "chain" && *space != "graph" {
		log.Fatalf("-space %q: want chain or graph", *space)
	}
	if *cvFolds < 1 {
		log.Fatalf("-cv %d: want ≥ 1", *cvFolds)
	}
	opts := fedforecaster.Options{
		Iterations:        *iters,
		TopK:              *topK,
		Seed:              *seed,
		BatchSize:         *batch,
		CallTimeout:       *callTimeout,
		MaxRetries:        *maxRetries,
		MinClientFraction: *minClients,
		Wire:              *wire,
		StructureSearch:   *space == "graph",
		CVFolds:           *cvFolds,
		CVBlocks:          *cvBlocks,
	}
	// -quiet silences only the human-readable trace; typed telemetry
	// sinks (-obs-addr, -trace-out) observe the run either way.
	var recorders []fedforecaster.Recorder
	if !*quiet {
		recorders = append(recorders, traceLines{})
	}
	var jsonl *obs.JSONL
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("opening trace sink: %v", err)
		}
		defer f.Close()
		jsonl = obs.NewJSONL(f)
		recorders = append(recorders, jsonl)
	}
	var metrics *obs.Metrics
	if *obsAddr != "" {
		metrics = obs.NewMetrics()
		recorders = append(recorders, metrics)
		stall := time.Duration(0)
		if *callTimeout > 0 {
			// A round outliving every per-call deadline (plus retry and
			// backoff headroom) is stuck.
			stall = *callTimeout * time.Duration(*maxRetries+2)
		}
		httpSrv, err := obs.Serve(*obsAddr, obs.ServeOptions{Metrics: metrics, StallAfter: stall})
		if err != nil {
			log.Fatalf("starting observability server: %v", err)
		}
		defer httpSrv.Close()
		fmt.Printf("observability: http://%s/metrics /healthz /debug/pprof\n", httpSrv.Addr())
	}
	var collector *fedtrace.Collector
	if *report {
		// The in-process collector feeds the same analyzer as cmd/fedtrace
		// — the end-of-run summary needs no separate trace-file pass.
		collector = fedtrace.NewCollector()
		recorders = append(recorders, collector)
	}
	opts.Recorder = obs.Multi(recorders...)
	if *kbPath != "" {
		kb, err := fedforecaster.LoadKnowledgeBase(*kbPath)
		if err != nil {
			log.Fatalf("loading knowledge base: %v", err)
		}
		meta, err := fedforecaster.TrainMetaModel(kb, *metaName, *seed)
		if err != nil {
			log.Fatalf("training meta-model: %v", err)
		}
		opts.Meta = meta
		fmt.Printf("meta-model %q trained on %d knowledge-base records\n", *metaName, len(kb.Records))
	}

	res, err := fedforecaster.Run(splits, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if len(res.Recommended) > 0 {
		fmt.Printf("recommended algorithms: %v\n", res.Recommended)
	}
	fmt.Printf("kept %d of %d engineered features\n", len(res.KeptFeatures), res.NumFeatures)
	fmt.Printf("evaluated %d configurations in %d evaluation rounds\n", res.Iterations, res.EvalRounds)
	printComms(res)
	fmt.Printf("best configuration: %s\n", res.BestConfig)
	fmt.Printf("global validation loss: %.6g\n", res.BestValidLoss)
	fmt.Printf("held-out test MSE: %.6g\n", res.TestMSE)
	if collector != nil {
		rep, err := fedtrace.Analyze(collector.Events())
		if err != nil {
			log.Fatalf("analyzing run trace: %v", err)
		}
		fmt.Println()
		if err := rep.WriteText(os.Stdout); err != nil {
			log.Fatalf("writing causal report: %v", err)
		}
	}
	// Close, not Err: the sink buffers, and a clean run whose final
	// flush fails must still exit nonzero.
	if jsonl != nil {
		if err := jsonl.Close(); err != nil {
			log.Fatalf("trace sink: %v", err)
		}
	}
}

// traceLines prints the human-readable run trace: each engine phase as
// it starts, and each client dropped from a quorum round. Both events
// come from the engine's own goroutine (drops after the round's
// barrier), so lines never interleave.
type traceLines struct{}

// Record implements obs.Recorder.
func (traceLines) Record(ev obs.Event) {
	switch e := ev.(type) {
	case obs.SpanStart:
		if e.Kind == obs.SpanPhase {
			fmt.Println("  [trace] phase", e.Name)
		}
	case obs.ClientDropped:
		fmt.Printf("  [trace] client %d dropped from %s round: %s\n", e.Client, e.Kind, e.Reason)
	}
}

// printComms renders the run's communication accounting — including
// wire wasted on failed attempts — as a small table. It prints even
// under -quiet: the accounting is a result, not a trace.
func printComms(res *fedforecaster.Result) {
	fmt.Println("communication:")
	fmt.Printf("  %-18s %12d\n", "rounds", res.Comms.Rounds)
	fmt.Printf("  %-18s %12d\n", "calls", res.Comms.Calls)
	fmt.Printf("  %-18s %12d\n", "bytes down", res.Comms.BytesDown)
	fmt.Printf("  %-18s %12d\n", "bytes up", res.Comms.BytesUp)
	fmt.Printf("  %-18s %12d\n", "wasted calls", res.Comms.WastedCalls)
	fmt.Printf("  %-18s %12d\n", "wasted bytes", res.Comms.WastedBytes)
}

func loadClients(csvPath, dataset string, clients int, scale float64, seed int64) ([]*timeseries.Series, error) {
	switch {
	case csvPath != "":
		s, err := timeseries.ReadCSVFile(csvPath)
		if err != nil {
			return nil, err
		}
		return s.PartitionClients(clients, 100)
	case dataset != "":
		for _, d := range synth.EvalDatasets() {
			if d.Name == dataset {
				d = d.Scaled(scale)
				d.Seed = seed
				cs, _, err := d.Generate()
				return cs, err
			}
		}
		return nil, fmt.Errorf("unknown dataset %q (use -list)", dataset)
	default:
		fmt.Fprintln(os.Stderr, "need -csv or -dataset; see -h")
		os.Exit(2)
		return nil, nil
	}
}

func totalLen(splits []*timeseries.Series) int {
	n := 0
	for _, s := range splits {
		n += s.Len()
	}
	return n
}
