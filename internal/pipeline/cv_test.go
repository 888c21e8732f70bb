package pipeline

import (
	"math/rand"
	"testing"

	"fedforecaster/internal/timeseries"
)

// TestFoldsSingleSplitDegenerate: CVFolds ≤ 1 must reproduce Bounds
// exactly — the byte-identity anchor of the single-split protocol.
func TestFoldsSingleSplitDegenerate(t *testing.T) {
	for _, cv := range []int{0, 1, -3} {
		s := Splits{ValidFrac: 0.15, TestFrac: 0.15, CVFolds: cv, ValidationBlocks: 4}
		for _, n := range []int{10, 100, 1000, 1601} {
			trainEnd, validEnd := s.Bounds(n)
			folds := s.Folds(n)
			if len(folds) != 1 {
				t.Fatalf("cv=%d n=%d: %d folds, want 1", cv, n, len(folds))
			}
			if folds[0].FitEnd != trainEnd || folds[0].ScoreEnd != validEnd {
				t.Errorf("cv=%d n=%d: fold %+v, want {%d %d}", cv, n, folds[0], trainEnd, validEnd)
			}
		}
	}
}

// TestFoldsTooSmallDegrade: a validation span with fewer rows than
// folds × blocks degrades to the single split instead of scoring
// empty windows.
func TestFoldsTooSmallDegrade(t *testing.T) {
	s := Splits{ValidFrac: 0.15, TestFrac: 0.15, CVFolds: 8, ValidationBlocks: 4}
	n := 100 // validation span = 15 rows < 32
	trainEnd, validEnd := s.Bounds(n)
	folds := s.Folds(n)
	if len(folds) != 1 || folds[0].FitEnd != trainEnd || folds[0].ScoreEnd != validEnd {
		t.Errorf("folds = %+v, want single {%d %d}", folds, trainEnd, validEnd)
	}
}

// TestFoldsProperties drives randomized split shapes through the fold
// arithmetic and checks the rolling-origin invariants: folds are
// chronological and contiguous, score windows never overlap, no fit
// region ever includes a row at or past its own scoring window (no
// future leakage), every scored row lies inside the validation span,
// and the final fold ends exactly at validEnd (the newest rows are
// always scored).
func TestFoldsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		s := Splits{
			ValidFrac:        0.05 + 0.4*rng.Float64(),
			TestFrac:         0.05 + 0.4*rng.Float64(),
			CVFolds:          2 + rng.Intn(7),
			ValidationBlocks: 1 + rng.Intn(4),
		}
		n := 30 + rng.Intn(3000)
		trainEnd, validEnd := s.Bounds(n)
		folds := s.Folds(n)
		if len(folds) == 1 {
			// Degraded: must be exactly the single split.
			if folds[0].FitEnd != trainEnd || folds[0].ScoreEnd != validEnd {
				t.Fatalf("trial %d: degraded fold %+v != {%d %d}", trial, folds[0], trainEnd, validEnd)
			}
			continue
		}
		if len(folds) != s.CVFolds {
			t.Fatalf("trial %d: %d folds, want %d (or 1 degraded)", trial, len(folds), s.CVFolds)
		}
		for k, f := range folds {
			if f.FitEnd >= f.ScoreEnd {
				t.Fatalf("trial %d fold %d: empty score window %+v", trial, k, f)
			}
			// No future leakage: the fit region [0, FitEnd) stops before
			// every scored row.
			if f.FitEnd > f.ScoreEnd-1 {
				t.Fatalf("trial %d fold %d: fit region reaches scored rows %+v", trial, k, f)
			}
			// Scored rows stay inside the validation span.
			if f.FitEnd < trainEnd || f.ScoreEnd > validEnd {
				t.Fatalf("trial %d fold %d: %+v outside validation span [%d,%d)", trial, k, f, trainEnd, validEnd)
			}
			if k > 0 {
				prev := folds[k-1]
				// Chronological, contiguous, non-overlapping score rows.
				if f.FitEnd != prev.ScoreEnd {
					t.Fatalf("trial %d fold %d: origin %d != previous end %d", trial, k, f.FitEnd, prev.ScoreEnd)
				}
				// Expanding window: a later fold may fit on everything the
				// earlier fold fit AND scored, never less.
				if f.FitEnd <= prev.FitEnd {
					t.Fatalf("trial %d fold %d: origin did not advance (%d ≤ %d)", trial, k, f.FitEnd, prev.FitEnd)
				}
			}
		}
		if last := folds[len(folds)-1]; last.ScoreEnd != validEnd {
			t.Fatalf("trial %d: last fold ends at %d, want validEnd %d", trial, last.ScoreEnd, validEnd)
		}
		// Equal windows: every fold scores the same number of rows, a
		// multiple of ValidationBlocks.
		window := folds[0].ScoreEnd - folds[0].FitEnd
		if window%s.ValidationBlocks != 0 {
			t.Fatalf("trial %d: window %d not a multiple of %d blocks", trial, window, s.ValidationBlocks)
		}
		for k, f := range folds {
			if f.ScoreEnd-f.FitEnd != window {
				t.Fatalf("trial %d fold %d: window %d != %d", trial, k, f.ScoreEnd-f.FitEnd, window)
			}
		}
	}
}

// TestCVLossAggregation: the per-client CV loss is the rows-weighted
// mean of the per-fold losses, and a single usable fold returns its
// loss bit-for-bit (no /1 float detour).
func TestCVLossAggregation(t *testing.T) {
	s := arSeries(1200, 3)
	eng := testEngineer([]*timeseries.Series{s})
	cfg := lassoCfg()

	single := Splits{ValidFrac: 0.2, TestFrac: 0.15}
	sl, sn, err := ClientLoss(s, eng, cfg, single, "valid", 5)
	if err != nil {
		t.Fatalf("single-split loss: %v", err)
	}

	cv := Splits{ValidFrac: 0.2, TestFrac: 0.15, CVFolds: 3, ValidationBlocks: 2}
	gp, err := BuildGraphPhase(s, eng, cv, "valid")
	if err != nil {
		t.Fatalf("building CV phase: %v", err)
	}
	if gp.Folds() != 3 {
		t.Fatalf("folds = %d, want 3", gp.Folds())
	}
	cl, cn, err := gp.Loss(cfg, 5)
	if err != nil {
		t.Fatalf("cv loss: %v", err)
	}

	// Recompute the expected aggregate from per-fold evaluations.
	folds := cv.Folds(s.Len())
	var sum, weight float64
	rows := 0
	for _, f := range folds {
		fgp := &GraphPhase{series: s, eng: eng}
		pd, err := buildRange(s, eng, f.FitEnd, f.ScoreEnd)
		if err != nil {
			t.Fatalf("fold %+v build: %v", f, err)
		}
		fgp.folds = []*foldPhase{{fold: f, base: pd, built: map[string]builtData{}}}
		l, n, err := fgp.Loss(cfg, 5)
		if err != nil {
			t.Fatalf("fold %+v loss: %v", f, err)
		}
		sum += l * float64(n)
		weight += float64(n)
		rows += n
	}
	want := sum / weight
	if cl != want || cn != rows {
		t.Errorf("cv loss = %v/%d rows, want %v/%d", cl, cn, want, rows)
	}
	if cl == sl && cn == sn {
		t.Errorf("cv loss coincides with single-split loss exactly; folds not applied?")
	}

	// CVFolds=1 must match the plain single-split evaluation exactly.
	one := Splits{ValidFrac: 0.2, TestFrac: 0.15, CVFolds: 1}
	ol, on, err := ClientLoss(s, eng, cfg, one, "valid", 5)
	if err != nil {
		t.Fatalf("cv=1 loss: %v", err)
	}
	if ol != sl || on != sn {
		t.Errorf("cv=1 loss = %v/%d, want bit-identical %v/%d", ol, on, sl, sn)
	}
}
