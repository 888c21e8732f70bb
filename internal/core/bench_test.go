package core

import (
	"fmt"
	"io"
	"testing"

	"fedforecaster/internal/fl"
	"fedforecaster/internal/obs"
)

// BenchmarkEngineRounds measures a full engine run on a seeded
// synthetic federation at batch sizes 1/4/8, reporting the numbers the
// batched protocol exists to move: evaluation rounds, total federated
// rounds, and exact lossless v1 payload bytes both ways (from
// Server.Stats).
// scripts/bench.sh parses this output into BENCH_engine.json.
func BenchmarkEngineRounds(b *testing.B) {
	for _, q := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			clients := fedDataset(b, 1600, 4, 11)
			cfg := smallEngineConfig(42)
			cfg.Iterations = 8
			cfg.BatchSize = q
			b.ResetTimer()
			var res *Result
			for i := 0; i < b.N; i++ {
				eng := NewEngine(nil, cfg)
				r, err := eng.Run(clients)
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			b.ReportMetric(float64(res.EvalRounds), "evalrounds")
			b.ReportMetric(float64(res.Comms.Rounds), "rounds")
			b.ReportMetric(float64(res.Comms.BytesDown), "bytesdown")
			b.ReportMetric(float64(res.Comms.BytesUp), "bytesup")
		})
	}
}

// BenchmarkEngineWire is the wire-format dimension of the engine
// benchmark: the same q=8 workload as BenchmarkEngineRounds, run over
// every wire tier — lossless v1 and the int8 and float16 quantized
// tiers. Byte metrics are exact encoded frame lengths, the accounting
// in Result.Comms. scripts/bench.sh parses this output into
// BENCH_engine.json's wire_formats section.
func BenchmarkEngineWire(b *testing.B) {
	for _, ws := range []string{"v1", "v1+q8", "v1+q16"} {
		b.Run("wire="+ws, func(b *testing.B) {
			w, err := fl.ParseWireOpts(ws)
			if err != nil {
				b.Fatal(err)
			}
			clients := fedDataset(b, 1600, 4, 11)
			cfg := smallEngineConfig(42)
			cfg.Iterations = 8
			cfg.BatchSize = 8
			cfg.Wire = w
			b.ResetTimer()
			var res *Result
			for i := 0; i < b.N; i++ {
				eng := NewEngine(nil, cfg)
				r, err := eng.Run(clients)
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			b.ReportMetric(float64(res.EvalRounds), "evalrounds")
			b.ReportMetric(float64(res.Comms.Rounds), "rounds")
			b.ReportMetric(float64(res.Comms.BytesDown), "bytesdown")
			b.ReportMetric(float64(res.Comms.BytesUp), "bytesup")
		})
	}
}

// BenchmarkRecorderOverhead measures the telemetry tax on a full
// engine run. The nil case is the no-op fast path the Recorder
// contract promises (alloc-free, within noise of the pre-telemetry
// engine); metrics attaches the live Prometheus aggregator; full adds
// a JSONL sink fan-out on top. scripts/bench.sh appends these rows to
// BENCH_engine.json so later perf PRs can watch the overhead.
func BenchmarkRecorderOverhead(b *testing.B) {
	cases := []struct {
		name string
		rec  func() obs.Recorder
	}{
		{"nil", func() obs.Recorder { return nil }},
		{"metrics", func() obs.Recorder { return obs.NewMetrics() }},
		{"full", func() obs.Recorder {
			return obs.Multi(obs.NewMetrics(), obs.NewJSONL(io.Discard))
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			clients := fedDataset(b, 1600, 4, 11)
			cfg := smallEngineConfig(42)
			cfg.Iterations = 8
			cfg.BatchSize = 4
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Recorder = c.rec()
				eng := NewEngine(nil, cfg)
				if _, err := eng.Run(clients); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
