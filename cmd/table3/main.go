// Command table3 regenerates the paper's Table 3 (and the Section 5.2
// statistics): FedForecaster vs federated random search vs federated
// and consolidated N-BEATS over the 12 evaluation datasets, with
// average ranks and Wilcoxon signed-rank p-values. It also exposes the
// client-count and budget sweeps the paper refers to, and the design
// ablations.
//
// Usage:
//
//	table3                               # scaled-down full table
//	table3 -scale 0.2 -iters 16 -seeds 3 # closer to paper scale
//	table3 -print-space                  # print Table 2's search space
//	table3 -sweep clients                # client-count sweep
//	table3 -sweep budget                 # budget sweep
//	table3 -ablation warmstart           # ablate one component
//	table3 -kb kb.json                   # use a trained meta-model
package main

import (
	"flag"
	"fmt"
	"log"

	"fedforecaster"
	"fedforecaster/internal/experiments"
	"fedforecaster/internal/search"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("table3: ")

	var (
		scale      = flag.Float64("scale", 0.05, "dataset length scale (1.0 = paper scale)")
		iters      = flag.Int("iters", 8, "optimization budget per method")
		timeBudget = flag.Duration("timebudget", 0, "wall-clock budget per method per dataset (paper semantics; 0 = iteration budget)")
		seeds      = flag.Int("seeds", 3, "repetitions averaged (paper: 3)")
		seed       = flag.Int64("seed", 1, "base random seed")
		kbPath     = flag.String("kb", "", "knowledge base enabling the meta-model")
		metaName   = flag.String("metamodel", "Random Forest", "meta-model classifier")
		skipNBeats = flag.Bool("skip-nbeats", false, "skip the neural baselines")
		printSpace = flag.Bool("print-space", false, "print the Table 2 search space and exit")
		sweep      = flag.String("sweep", "", "run a sweep instead: clients | budget")
		runtime    = flag.Bool("runtime", false, "run the Section 5.2 runtime measurement instead")
		ablation   = flag.String("ablation", "", "run an ablation instead: warmstart | surrogate | featuresel | globalmeta")
		datasets   = flag.String("datasets", "", "comma-separated dataset filter")
	)
	flag.Parse()

	if *printSpace {
		printSearchSpace()
		return
	}
	if *sweep != "" {
		runSweep(*sweep, *scale, *iters, *seed)
		return
	}
	if *runtime {
		rep, err := experiments.RunRuntimeReport(*scale*5, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(rep.Format())
		return
	}
	if *ablation != "" {
		res, err := experiments.RunAblation(*ablation, *scale, *iters, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ablation %q (%d iterations):\n", res.Name, res.Iterations)
		fmt.Printf("  full    : valid loss %.6g, test MSE %.6g\n", res.FullLoss, res.FullMSE)
		fmt.Printf("  ablated : valid loss %.6g, test MSE %.6g\n", res.AblatedLoss, res.AblatedMSE)
		return
	}

	cfg := experiments.Table3Config{
		Scale:      *scale,
		Iterations: *iters,
		TimeBudget: *timeBudget,
		Seeds:      *seeds,
		Seed:       *seed,
		SkipNBeats: *skipNBeats,
		Progress:   func(line string) { fmt.Println("  " + line) },
	}
	if *datasets != "" {
		cfg.Datasets = splitComma(*datasets)
	}
	if *kbPath != "" {
		kb, err := fedforecaster.LoadKnowledgeBase(*kbPath)
		if err != nil {
			log.Fatal(err)
		}
		meta, err := fedforecaster.TrainMetaModel(kb, *metaName, *seed)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Meta = meta
		fmt.Printf("meta-model %q trained on %d records\n", *metaName, len(kb.Records))
	}
	rep, err := experiments.RunTable3(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(rep.Format())
	fmt.Printf("FedForecaster lowest-MSE datasets: %d of %d (paper: 10 of 12)\n", rep.Wins(), len(rep.Rows))
}

func printSearchSpace() {
	fmt.Println("Table 2 search space:")
	for _, sp := range search.DefaultSpaces() {
		fmt.Printf("  %s\n", sp.Algorithm)
		for _, p := range sp.Params {
			switch p.Kind {
			case search.Categorical:
				fmt.Printf("    %-14s %v\n", p.Name, p.Choices)
			case search.IntUniform:
				fmt.Printf("    %-14s [%d:%d] (int)\n", p.Name, int(p.Lo), int(p.Hi))
			case search.LogUniform:
				fmt.Printf("    %-14s [%.4g:%.4g] (log)\n", p.Name, p.Lo, p.Hi)
			default:
				fmt.Printf("    %-14s [%.4g:%.4g]\n", p.Name, p.Lo, p.Hi)
			}
		}
	}
}

func runSweep(kind string, scale float64, iters int, seed int64) {
	var (
		rep *experiments.SweepReport
		err error
	)
	switch kind {
	case "clients":
		rep, err = experiments.RunClientSweep(scale*8, iters, seed)
	case "budget":
		rep, err = experiments.RunBudgetSweep(scale*8, nil, seed)
	default:
		log.Fatalf("unknown sweep %q (want clients or budget)", kind)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Format())
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
