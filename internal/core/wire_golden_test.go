package core

import (
	"fmt"
	"math"
	"testing"

	"fedforecaster/internal/fl"
)

// wireRun executes the golden engine configuration over the in-proc
// transport speaking the given wire format.
func wireRun(t testing.TB, batch int, wire string) *Result {
	w, err := fl.ParseWireOpts(wire)
	if err != nil {
		t.Fatal(err)
	}
	clients := fedDataset(t, 1600, 4, 11)
	cfg := smallEngineConfig(42)
	cfg.Iterations = 8
	cfg.BatchSize = batch
	cfg.Wire = w
	res, err := NewEngine(nil, cfg).Run(clients)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// losslessGolden pins lossless v1 runs of the golden configuration at
// q=4 and q=8: each history entry as "<config>|<Float64bits of the
// global valid loss>", then the best valid loss and test MSE bits.
// The configs were recorded over the gob framing that lossless v1
// replaced; the Lasso loss bits were re-pinned once when coordinate
// descent moved to Gram form, and the Huber loss bits once when IRLS
// moved to a unit-weight base. q=1 is pinned by goldenHistory.
var losslessGolden = map[int]struct {
	history           []string
	bestLoss, testMSE string
}{
	4: {[]string{
		"Lasso alpha=0.259576 selection=random|3fd8b8b2f0fc743d",
		"HuberRegressor alpha=0.606531 epsilon=1.35|3fe773046c9c338d",
		"Lasso alpha=8.31738 selection=cyclic|4040caa831df24e2",
		"Lasso alpha=0.00701849 selection=cyclic|3fcf87edb54d5197",
		"HuberRegressor alpha=0.0613922 epsilon=1.0|3fd6514e9365bf0f",
		"Lasso alpha=0.0119635 selection=random|3fcfa054a2ec0203",
		"Lasso alpha=0.110847 selection=random|3fd2ca1641f33f0a",
		"Lasso alpha=0.547605 selection=random|3fe54080ae17f96d",
	}, "3fcf87edb54d5197", "3fce9594df34eeca"},
	8: {[]string{
		"Lasso alpha=0.259576 selection=random|3fd8b8b2f0fc743d",
		"HuberRegressor alpha=0.606531 epsilon=1.35|3fe773046c9c338d",
		"Lasso alpha=8.31738 selection=cyclic|4040caa831df24e2",
		"Lasso alpha=0.00701849 selection=cyclic|3fcf87edb54d5197",
		"HuberRegressor alpha=0.0613922 epsilon=1.0|3fd6514e9365bf0f",
		"HuberRegressor alpha=7.15466 epsilon=1.5|4025686350e1bc5f",
		"HuberRegressor alpha=4.68333 epsilon=1.0|401d471f32b60417",
		"HuberRegressor alpha=0.0957617 epsilon=1.5|3fd6cfe8187797d2",
	}, "3fcf87edb54d5197", "3fce9594df34eeca"},
}

// losslessComms pins the exact lossless v1 frame bytes of the golden
// configuration per batch size. A lossless varfloat's length depends
// on the loss's low mantissa bits, so BytesUp follows the loss bits
// (the Gram-form re-pin moved it by +7, +4 and +1 B, the Huber
// unit-weight base by −1, +2 and +3 B).
var losslessComms = map[int]fl.Stats{
	1: {Rounds: 13, Calls: 52, BytesDown: 2116, BytesUp: 3008},
	4: {Rounds: 7, Calls: 28, BytesDown: 1608, BytesUp: 2600},
	8: {Rounds: 6, Calls: 24, BytesDown: 1528, BytesUp: 2530},
}

// TestWireLosslessGoldenIdentity pins the lossless tier's contract at
// the sequential and both batched round structures: the history, down
// to the Float64bits of every loss, the best valid loss and the test
// MSE match the recorded digests, and Result.Comms bills the exact
// frame bytes.
func TestWireLosslessGoldenIdentity(t *testing.T) {
	for _, batch := range []int{1, 4, 8} {
		want := losslessGolden[batch]
		if batch == 1 {
			want.history, want.bestLoss, want.testMSE = goldenHistory, goldenBestLoss, goldenTestMSE
		}
		res := wireRun(t, batch, "v1")
		if len(res.History) != len(want.history) {
			t.Fatalf("q=%d: history length %d, want %d", batch, len(res.History), len(want.history))
		}
		for i, h := range res.History {
			if got := fmt.Sprintf("%s|%016x", h.Config.String(), math.Float64bits(h.GlobalLoss)); got != want.history[i] {
				t.Errorf("q=%d: history[%d] = %q, want %q", batch, i, got, want.history[i])
			}
		}
		if got := fmt.Sprintf("%016x", math.Float64bits(res.BestValidLoss)); got != want.bestLoss {
			t.Errorf("q=%d: best valid loss %s, want %s", batch, got, want.bestLoss)
		}
		if got := fmt.Sprintf("%016x", math.Float64bits(res.TestMSE)); got != want.testMSE {
			t.Errorf("q=%d: test MSE %s, want %s", batch, got, want.testMSE)
		}
		if res.Comms != losslessComms[batch] {
			t.Errorf("q=%d: comms %+v, want %+v", batch, res.Comms, losslessComms[batch])
		}
	}
}

// TestWireQuantizedTolerance: under the quantized tiers the engine
// must stay on the same optimization trajectory — same candidates in
// the same order, same winner — with every loss within a pinned
// tolerance of the lossless value. The tolerances mirror the codec's
// error bounds: float16 perturbs each shipped loss by ~2⁻¹¹ relative,
// while int8's step is (max−min)/255 of each client's loss batch —
// an *absolute* error set by the spread of the batch (≈7 for this
// corpus, so ≈0.014 per level, up to a few hundredths after
// aggregation), however small the loss itself is.
func TestWireQuantizedTolerance(t *testing.T) {
	lossless := wireRun(t, 8, "v1")
	for _, tier := range []struct {
		ws       string
		rel, abs float64
	}{
		{"v1+q8", 5e-3, 0.05},
		{"v1+q16", 2e-3, 1e-6},
	} {
		ws, relTol := tier.ws, tier.rel
		res := wireRun(t, 8, ws)
		if got, want := res.BestConfig.String(), lossless.BestConfig.String(); got != want {
			t.Errorf("%s: best config %q, want %q", ws, got, want)
		}
		if len(res.History) != len(lossless.History) {
			t.Fatalf("%s: history length %d, want %d", ws, len(res.History), len(lossless.History))
		}
		for i := range res.History {
			if got, want := res.History[i].Config.String(), lossless.History[i].Config.String(); got != want {
				t.Errorf("%s: history[%d] config %q, want %q", ws, i, got, want)
			}
			got, want := res.History[i].GlobalLoss, lossless.History[i].GlobalLoss
			if diff := math.Abs(got - want); !(diff <= relTol*math.Abs(want)+tier.abs) {
				t.Errorf("%s: history[%d] loss %v vs %v: error %g exceeds %g + %g·rel",
					ws, i, got, want, diff, tier.abs, relTol)
			}
		}
		if diff := math.Abs(res.TestMSE - lossless.TestMSE); !(diff <= relTol*math.Abs(lossless.TestMSE)+tier.abs) {
			t.Errorf("%s: test MSE %v vs %v exceeds tolerance", ws, res.TestMSE, lossless.TestMSE)
		}
		if res.EvalRounds != lossless.EvalRounds {
			t.Errorf("%s: eval rounds %d, want %d", ws, res.EvalRounds, lossless.EvalRounds)
		}
	}
}

// TestWireQuantCommsReduction: at BatchSize 8 the int8 tier ships
// strictly fewer bytes than lossless v1 in each direction over the
// identical round structure. The bounds sit just above the measured
// ratios (1528→1076 bytes down, 0.70; 2527→918 up, 0.36): the requests
// are mostly interned strings the quantizer cannot shrink, while the
// responses are mostly the loss vectors it does.
func TestWireQuantCommsReduction(t *testing.T) {
	lossless := wireRun(t, 8, "v1")
	res := wireRun(t, 8, "v1+q8")
	if res.EvalRounds != lossless.EvalRounds || res.Comms.Rounds != lossless.Comms.Rounds ||
		res.Comms.Calls != lossless.Comms.Calls {
		t.Fatalf("round structure diverged (evals %d vs %d, rounds %d vs %d, calls %d vs %d) — byte ratio not comparable",
			res.EvalRounds, lossless.EvalRounds, res.Comms.Rounds, lossless.Comms.Rounds,
			res.Comms.Calls, lossless.Comms.Calls)
	}
	t.Logf("down %d→%d (%.2f), up %d→%d (%.2f)",
		lossless.Comms.BytesDown, res.Comms.BytesDown, float64(res.Comms.BytesDown)/float64(lossless.Comms.BytesDown),
		lossless.Comms.BytesUp, res.Comms.BytesUp, float64(res.Comms.BytesUp)/float64(lossless.Comms.BytesUp))
	if res.Comms.BytesDown <= 0 || res.Comms.BytesUp <= 0 {
		t.Fatalf("empty byte accounting: %+v", res.Comms)
	}
	if 4*res.Comms.BytesDown > 3*lossless.Comms.BytesDown {
		t.Errorf("bytes down %d vs lossless %d: above 3/4", res.Comms.BytesDown, lossless.Comms.BytesDown)
	}
	if 5*res.Comms.BytesUp > 2*lossless.Comms.BytesUp {
		t.Errorf("bytes up %d vs lossless %d: above 2/5", res.Comms.BytesUp, lossless.Comms.BytesUp)
	}
}
