package core

import (
	"fmt"
	"math"
	"testing"
)

// goldenHistory is the optimization history produced by the
// pre-refactor sequential loop (one candidate per federated round) on
// fedDataset(1600, 4, 11) with smallEngineConfig(42) and 8 iterations.
// Each entry is "<config>|<Float64bits of the global valid loss>".
// Round protocol v2 with BatchSize 1 must reproduce it byte-for-byte:
// same GP draws, same candidate order, bit-identical losses. The
// configs date from that loop; the Lasso loss bits were re-pinned
// once when coordinate descent moved to Gram form, and the Huber loss
// bits once when IRLS moved to a unit-weight base. Each changes the
// rounding of its own fits and nothing else.
var goldenHistory = []string{
	"Lasso alpha=0.259576 selection=random|3fd8b8b2f0fc743d",
	"HuberRegressor alpha=0.606531 epsilon=1.35|3fe773046c9c338d",
	"Lasso alpha=8.31738 selection=cyclic|4040caa831df24e2",
	"HuberRegressor alpha=0.0518098 epsilon=1.5|3fd573d97e6affc1",
	"Lasso alpha=0.06989 selection=random|3fd15fbef576f82c",
	"Lasso alpha=0.168782 selection=random|3fd4d7710bf80fa4",
	"Lasso alpha=0.209617 selection=random|3fd684247c12e7c8",
	"Lasso alpha=0.547605 selection=random|3fe53f0a8e4c2a45",
}

const (
	goldenBestConfig = "Lasso alpha=0.06989 selection=random"
	goldenBestLoss   = "3fd15fbef576f82c"
	goldenTestMSE    = "3fd0207b61345932"
)

func goldenRun(t testing.TB, batch int) *Result {
	clients := fedDataset(t, 1600, 4, 11)
	cfg := smallEngineConfig(42)
	cfg.Iterations = 8
	cfg.BatchSize = batch
	eng := NewEngine(nil, cfg)
	res, err := eng.Run(clients)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGoldenHistorySequential pins the q=1 ≡ sequential contract: the
// phase-structured engine with BatchSize 1 reproduces the pre-refactor
// loop's history bit-for-bit.
func TestGoldenHistorySequential(t *testing.T) {
	res := goldenRun(t, 1)
	if len(res.History) != len(goldenHistory) {
		t.Fatalf("history length = %d, want %d", len(res.History), len(goldenHistory))
	}
	for i, h := range res.History {
		got := fmt.Sprintf("%s|%016x", h.Config.String(), math.Float64bits(h.GlobalLoss))
		if got != goldenHistory[i] {
			t.Errorf("history[%d] = %q, want %q", i, got, goldenHistory[i])
		}
	}
	if got := res.BestConfig.String(); got != goldenBestConfig {
		t.Errorf("best config = %q, want %q", got, goldenBestConfig)
	}
	if got := fmt.Sprintf("%016x", math.Float64bits(res.BestValidLoss)); got != goldenBestLoss {
		t.Errorf("best valid loss bits = %s, want %s", got, goldenBestLoss)
	}
	if got := fmt.Sprintf("%016x", math.Float64bits(res.TestMSE)); got != goldenTestMSE {
		t.Errorf("test MSE bits = %s, want %s", got, goldenTestMSE)
	}
	if res.EvalRounds != len(goldenHistory) {
		t.Errorf("eval rounds = %d, want %d (one per candidate at q=1)", res.EvalRounds, len(goldenHistory))
	}
}

// TestBatchedRunFewerRounds is the batched acceptance criterion: q=4
// shrinks the evaluation round count at least 3× while finding an
// equal-or-better validation incumbent than the sequential run.
func TestBatchedRunFewerRounds(t *testing.T) {
	seq := goldenRun(t, 1)
	batched := goldenRun(t, 4)

	if batched.Iterations != seq.Iterations {
		t.Errorf("batched evaluated %d candidates, sequential %d; budgets must match",
			batched.Iterations, seq.Iterations)
	}
	if 3*batched.EvalRounds > seq.EvalRounds {
		t.Errorf("eval rounds %d (q=4) vs %d (q=1): want ≥3× reduction",
			batched.EvalRounds, seq.EvalRounds)
	}
	if batched.BestValidLoss > seq.BestValidLoss {
		t.Errorf("batched best valid loss %v worse than sequential %v",
			batched.BestValidLoss, seq.BestValidLoss)
	}
}

// TestBatchedRunDeterministic: the batched path is as reproducible as
// the sequential one — same seed, same history, same bytes on the
// wire.
func TestBatchedRunDeterministic(t *testing.T) {
	r1 := goldenRun(t, 4)
	r2 := goldenRun(t, 4)
	if len(r1.History) != len(r2.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(r1.History), len(r2.History))
	}
	for i := range r1.History {
		a := fmt.Sprintf("%s|%016x", r1.History[i].Config.String(), math.Float64bits(r1.History[i].GlobalLoss))
		b := fmt.Sprintf("%s|%016x", r2.History[i].Config.String(), math.Float64bits(r2.History[i].GlobalLoss))
		if a != b {
			t.Errorf("history[%d]: %q vs %q", i, a, b)
		}
	}
	if r1.TestMSE != r2.TestMSE {
		t.Errorf("test MSE differs: %v vs %v", r1.TestMSE, r2.TestMSE)
	}
	if r1.Comms != r2.Comms {
		t.Errorf("comms stats differ: %+v vs %+v", r1.Comms, r2.Comms)
	}
}

// TestCommsAccounting sanity-checks the Result.Comms surface: a run
// reports rounds/calls/bytes, and batching moves strictly fewer bytes
// down (engineer shipped once, configs keyed by fingerprint).
func TestCommsAccounting(t *testing.T) {
	seq := goldenRun(t, 1)
	if seq.Comms.Rounds == 0 || seq.Comms.Calls == 0 {
		t.Fatalf("empty comms accounting: %+v", seq.Comms)
	}
	if seq.Comms.BytesDown <= 0 || seq.Comms.BytesUp <= 0 {
		t.Fatalf("non-positive byte accounting: %+v", seq.Comms)
	}
	batched := goldenRun(t, 4)
	if batched.Comms.Rounds >= seq.Comms.Rounds {
		t.Errorf("batched rounds %d not fewer than sequential %d",
			batched.Comms.Rounds, seq.Comms.Rounds)
	}
	if batched.Comms.BytesDown >= seq.Comms.BytesDown {
		t.Errorf("batched bytes down %d not fewer than sequential %d",
			batched.Comms.BytesDown, seq.Comms.BytesDown)
	}
}
