package model

import (
	"math"
	"testing"
)

func TestMSEAndFriends(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{1, 3, 5}
	if got := MSE(pred, truth); got != (0.0+1+4)/3 {
		t.Errorf("MSE = %v", got)
	}
}

func TestMetricsEmptyAndMismatch(t *testing.T) {
	if !math.IsNaN(MSE(nil, nil)) {
		t.Error("empty metrics should be NaN")
	}
	defer func() {
		if recover() == nil {
			t.Error("MSE length mismatch did not panic")
		}
	}()
	MSE([]float64{1}, []float64{1, 2})
}

func TestDatasetSelectColumns(t *testing.T) {
	d := &Dataset{
		X:     [][]float64{{1, 2, 3}, {4, 5, 6}},
		Y:     []float64{10, 20},
		Names: []string{"a", "b", "c"},
	}
	out := d.SelectColumns([]int{2, 0})
	if out.NumFeatures() != 2 {
		t.Fatalf("p = %d", out.NumFeatures())
	}
	if out.X[0][0] != 3 || out.X[0][1] != 1 || out.X[1][0] != 6 {
		t.Fatalf("selected X = %v", out.X)
	}
	if out.Names[0] != "c" || out.Names[1] != "a" {
		t.Fatalf("selected names = %v", out.Names)
	}
}

func TestDatasetSelectColumnsOutOfRange(t *testing.T) {
	d := &Dataset{X: [][]float64{{1}}, Y: []float64{1}}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range column did not panic")
		}
	}()
	d.SelectColumns([]int{5})
}

func TestDatasetSplit(t *testing.T) {
	d := &Dataset{
		X: [][]float64{{1}, {2}, {3}, {4}},
		Y: []float64{1, 2, 3, 4},
	}
	tr, va := d.Split(3)
	if tr.Len() != 3 || va.Len() != 1 {
		t.Fatalf("split = %d/%d", tr.Len(), va.Len())
	}
	if va.Y[0] != 4 {
		t.Error("split not chronological")
	}
	// Clamping.
	tr2, va2 := d.Split(-1)
	if tr2.Len() != 0 || va2.Len() != 4 {
		t.Error("negative split not clamped")
	}
	tr3, _ := d.Split(100)
	if tr3.Len() != 4 {
		t.Error("oversized split not clamped")
	}
}

func TestDatasetEmpty(t *testing.T) {
	d := &Dataset{}
	if d.Len() != 0 || d.NumFeatures() != 0 {
		t.Error("empty dataset dims wrong")
	}
}
