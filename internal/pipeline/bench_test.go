package pipeline

import (
	"testing"

	"fedforecaster/internal/search"
)

// BenchmarkPipelineDAG measures the steady-state candidate evaluation
// cost of the pipeline executor — the ClientNode hot path — for the
// paper's chain, a fully branched structure template (smoothing
// pre-transform, exog rejoin, and a second regressor arm merged by
// mean), and the chain under 3-fold rolling-origin CV. One warm-up call
// populates the per-fold pre-transform memo, so the loop prices exactly
// what the engine pays per candidate after the first. The graph=...
// names are the row keys scripts/bench.sh parses into
// BENCH_engine.json's pipeline_dag section.
func BenchmarkPipelineDAG(b *testing.B) {
	cases := []struct {
		name      string
		pre, arm2 string
		cvFolds   int
	}{
		{"chain", "none", "none", 0},
		{"branched", "smooth5", "tree", 0},
		{"chain-cv3", "none", "none", 3},
	}
	for _, c := range cases {
		b.Run("graph="+c.name, func(b *testing.B) {
			clients := multivariateClients(b, 1500, 3, 42)
			s := clients[0]
			eng := testEngineer(clients)
			eng.ExogNames = []string{"drv"}
			splits := Splits{ValidFrac: 0.15, TestFrac: 0.15, CVFolds: c.cvFolds, ValidationBlocks: 2}
			gp, err := BuildGraphPhase(s, eng, splits, "valid")
			if err != nil {
				b.Fatal(err)
			}
			cfg := lassoCfg()
			cfg.Cats[search.StructPre] = c.pre
			cfg.Cats[search.StructArm2] = c.arm2
			if _, _, err := gp.Loss(cfg, 1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := gp.Loss(cfg, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(gp.Folds()), "folds")
		})
	}
}
