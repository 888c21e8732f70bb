package fedforecaster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"fedforecaster/internal/core"
	"fedforecaster/internal/fl"
	"fedforecaster/internal/metalearn"
	"fedforecaster/internal/search"
	"fedforecaster/internal/synth"
)

var updateCorpus = flag.Bool("update", false, "print TestGoldenCorpusDigests' pins as Go source instead of checking them")

// corpusShape mirrors one of the four benchmark workloads (bench/fedbench
// workload.go) at miniature scale: the same dataset family, engine
// features, wire tier and fault model, with fewer iterations. The root
// module cannot import bench/, so the shapes are restated here.
type corpusShape struct {
	name      string
	dataset   string
	scale     float64
	meta      bool // Random Forest meta-model trained on kb.json, K=3
	algos     []string
	iters     int
	batch     int
	featSel   bool
	structure bool
	cvFolds   int
	wire      string
	// chaos wraps the transport in fl.NewChaos: 2% transient faults on
	// every client, the last client dies after dieAfter calls, and the
	// engine retries twice and needs a 0.8 quorum.
	chaos    bool
	dieAfter int
}

var corpusShapes = []corpusShape{
	{
		name: "paper-seq", dataset: "USBirthsDaily", scale: 0.1,
		meta: true, iters: 8, batch: 1, featSel: true, wire: "v1",
	},
	{
		name: "batch-wide", dataset: "nasdaq_Brazil_Pr_Base_Financial_Rate", scale: 0.1,
		iters: 24, batch: 8, wire: "v1+q8",
	},
	{
		name: "graph-cv", dataset: "nasdaq_Brazil_Saving_Deposits1",
		algos: []string{search.AlgoLasso, search.AlgoHuber},
		iters: 12, batch: 4, structure: true, cvFolds: 3, wire: "v1",
	},
	{
		name: "chaos-rounds", dataset: "Energy Select Sector ETF", scale: 0.1,
		algos: []string{search.AlgoLasso, search.AlgoHuber},
		iters: 16, batch: 1, wire: "v1", chaos: true, dieAfter: 12,
	},
}

// corpusSeeds are the federations each shape runs: federation j is the
// dataset generated with its own seed plus j, and that seed also seeds
// the engine, as in the benchmark corpus.
var corpusSeeds = []int64{0, 1}

// corpusPin is one (shape, federation) run, split so that a re-pin
// shows what moved: the decisions, the loss bits, or the wire bytes.
type corpusPin struct {
	decision string // History configs, EvalRounds, Recommended, KeptFeatures, BestConfig
	numeric  string // History loss bits, BestValidLoss, TestMSE
	comms    fl.Stats
}

// corpusGolden pins every (shape, federation) of TestGoldenCorpusDigests.
// Regenerate with `go test -run TestGoldenCorpusDigests -update .` and
// argue every moved value in CHANGES.md.
var corpusGolden = map[string]corpusPin{
	"paper-seq/0":    {"5aa6bc642d227985", "806bb073c424413e", fl.Stats{Rounds: 13, Calls: 65, BytesDown: 2740, BytesUp: 3719, WastedCalls: 0, WastedBytes: 0}},
	"paper-seq/1":    {"e4d439b6ecd190f5", "786f624aa299eb8c", fl.Stats{Rounds: 13, Calls: 65, BytesDown: 2905, BytesUp: 3697, WastedCalls: 0, WastedBytes: 0}},
	"batch-wide/0":   {"d234c1095fb76713", "c85d868eb9a37ad4", fl.Stats{Rounds: 7, Calls: 105, BytesDown: 7890, BytesUp: 4016, WastedCalls: 0, WastedBytes: 0}},
	"batch-wide/1":   {"e3a39befe8b79d7f", "7e841afe78eecbe2", fl.Stats{Rounds: 7, Calls: 105, BytesDown: 7860, BytesUp: 4017, WastedCalls: 0, WastedBytes: 0}},
	"graph-cv/0":     {"2520725303281a9a", "c0ef5b5515a850d1", fl.Stats{Rounds: 7, Calls: 35, BytesDown: 2870, BytesUp: 2214, WastedCalls: 0, WastedBytes: 0}},
	"graph-cv/1":     {"a2b990c17347a8c2", "e52ceeddd2aa660c", fl.Stats{Rounds: 7, Calls: 35, BytesDown: 2820, BytesUp: 2180, WastedCalls: 0, WastedBytes: 0}},
	"chaos-rounds/0": {"7b51e989ad6beace", "96688da3550aa404", fl.Stats{Rounds: 20, Calls: 190, BytesDown: 7844, BytesUp: 7348, WastedCalls: 14, WastedBytes: 582}},
	"chaos-rounds/1": {"06014f6a3181a767", "4adccff02500b6de", fl.Stats{Rounds: 20, Calls: 192, BytesDown: 7919, BytesUp: 7346, WastedCalls: 16, WastedBytes: 671}},
}

// TestGoldenCorpusDigests is the whole-system bit-identity oracle: each
// benchmark workload shape runs on two federations at GOMAXPROCS 1 and
// 4, and both runs must reproduce the pinned decision digest, numeric
// digest and Comms tuple. Equal pins at both GOMAXPROCS values show the
// results do not depend on how the client fan-out and the pipeline
// executor are scheduled.
func TestGoldenCorpusDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 miniature federations")
	}
	var meta *metalearn.MetaModel
	for _, sh := range corpusShapes {
		if !sh.meta || meta != nil {
			continue
		}
		kb, err := metalearn.Load("kb.json")
		if err != nil {
			t.Fatal(err)
		}
		clf, err := metalearn.NewClassifier("Random Forest", 1)
		if err != nil {
			t.Fatal(err)
		}
		if meta, err = metalearn.TrainMetaModel(kb, clf); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sh := range corpusShapes {
		for _, j := range corpusSeeds {
			key := fmt.Sprintf("%s/%d", sh.name, j)
			var got []corpusPin
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				res, err := sh.run(j, meta)
				if err != nil {
					t.Fatalf("%s at GOMAXPROCS %d: %v", key, procs, err)
				}
				got = append(got, pinResult(res))
			}
			if got[0] != got[1] {
				t.Errorf("%s: GOMAXPROCS 1 gives %+v, GOMAXPROCS 4 gives %+v", key, got[0], got[1])
			}
			if *updateCorpus {
				c := got[0].comms
				fmt.Printf("\t%q: {%q, %q, fl.Stats{Rounds: %d, Calls: %d, BytesDown: %d, BytesUp: %d, WastedCalls: %d, WastedBytes: %d}},\n",
					key, got[0].decision, got[0].numeric,
					c.Rounds, c.Calls, c.BytesDown, c.BytesUp, c.WastedCalls, c.WastedBytes)
				continue
			}
			want, ok := corpusGolden[key]
			if !ok {
				t.Errorf("%s: no pin; run with -update", key)
				continue
			}
			if got[0].decision != want.decision {
				t.Errorf("%s: decision digest %s, want %s", key, got[0].decision, want.decision)
			}
			if got[0].numeric != want.numeric {
				t.Errorf("%s: numeric digest %s, want %s", key, got[0].numeric, want.numeric)
			}
			if got[0].comms != want.comms {
				t.Errorf("%s: comms %+v, want %+v", key, got[0].comms, want.comms)
			}
		}
	}
}

// run performs one engine run of the shape over federation j, through
// the same public calls the benchmark makes: fresh client nodes, an
// in-process wire transport, an optional chaos wrapper, NewServer and
// RunWithServer.
func (sh corpusShape) run(j int64, meta *metalearn.MetaModel) (*core.Result, error) {
	var d synth.EvalDataset
	for _, e := range synth.EvalDatasets() {
		if e.Name == sh.dataset {
			d = e
		}
	}
	if sh.scale > 0 {
		d = d.Scaled(sh.scale)
	}
	d.Seed += j
	clients, _, err := d.Generate()
	if err != nil {
		return nil, err
	}
	wire, err := fl.ParseWireOpts(sh.wire)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultEngineConfig()
	cfg.Seed = d.Seed
	cfg.Iterations = sh.iters
	cfg.BatchSize = sh.batch
	cfg.FeatureSelection = sh.featSel
	cfg.StructureSearch = sh.structure
	cfg.Wire = wire
	if sh.cvFolds > 1 {
		cfg.Splits.CVFolds = sh.cvFolds
		cfg.Splits.ValidationBlocks = 1
	}
	for _, a := range sh.algos {
		if sp, ok := search.SpaceFor(search.DefaultSpaces(), a); ok {
			cfg.Spaces = append(cfg.Spaces, sp)
		}
	}
	nodes := make([]fl.Client, len(clients))
	for i, s := range clients {
		nodes[i] = core.NewClientNode(s, d.Seed+int64(i)*101)
	}
	var t fl.Transport = fl.NewInProcWire(nodes, wire)
	if sh.chaos {
		cfg.MaxRetries = 2
		cfg.MinClientFraction = 0.8
		ct := fl.NewChaos(t, d.Seed)
		for i := range nodes {
			f := fl.ClientFaults{TransientProb: 0.02}
			if i == len(nodes)-1 {
				f.DieAfter = sh.dieAfter
			}
			ct.SetFaults(i, f)
		}
		t = ct
	}
	if !sh.meta {
		meta = nil
	}
	srv := fl.NewServer(t)
	defer srv.Close()
	return core.NewEngine(meta, cfg).RunWithServer(srv)
}

// pinResult digests a run's decisions and numbers separately and keeps
// its Comms tuple whole.
func pinResult(res *core.Result) corpusPin {
	dec, num := sha256.New(), sha256.New()
	putInt := func(w io.Writer, v int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		w.Write(b[:])
	}
	putStr := func(w io.Writer, s string) {
		putInt(w, len(s))
		io.WriteString(w, s)
	}
	putFloat := func(w io.Writer, v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		w.Write(b[:])
	}
	putInt(dec, len(res.History))
	for _, h := range res.History {
		putStr(dec, h.Config.String())
		putFloat(num, h.GlobalLoss)
	}
	putInt(dec, res.EvalRounds)
	putInt(dec, len(res.Recommended))
	for _, a := range res.Recommended {
		putStr(dec, a)
	}
	putInt(dec, len(res.KeptFeatures))
	for _, f := range res.KeptFeatures {
		putInt(dec, f)
	}
	putStr(dec, res.BestConfig.String())
	putFloat(num, res.BestValidLoss)
	putFloat(num, res.TestMSE)
	return corpusPin{
		decision: hex.EncodeToString(dec.Sum(nil)[:8]),
		numeric:  hex.EncodeToString(num.Sum(nil)[:8]),
		comms:    res.Comms,
	}
}
