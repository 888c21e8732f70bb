package core

import (
	"math"
	"testing"
)

func TestDeployAndForecast(t *testing.T) {
	clients := fedDataset(t, 1500, 3, 60)
	res, err := NewEngine(nil, smallEngineConfig(61)).Run(clients)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(clients, res, 62)
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Models) != 3 {
		t.Fatalf("models = %d", len(dep.Models))
	}
	if dep.Config.Algorithm != res.BestConfig.Algorithm {
		t.Error("deployment config mismatch")
	}
	for i, m := range dep.Models {
		fc, err := m.Forecast(12)
		if err != nil {
			t.Fatalf("model %d: %v", i, err)
		}
		if len(fc) != 12 {
			t.Fatalf("forecast length = %d", len(fc))
		}
		for _, v := range fc {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite forecast %v", fc)
			}
			// The fedDataset process is mean-reverting around 20 with
			// seasonal amplitude ±3; forecasts must stay in a sane band.
			if v < 5 || v > 35 {
				t.Fatalf("implausible forecast %v (series mean ≈ 20)", v)
			}
		}
		next, err := m.Forecast(1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(next[0]-fc[0]) > 1e-9 {
			t.Error("Forecast(1) disagrees with the first step of Forecast(12)")
		}
	}
}

func TestForecastTracksSeasonality(t *testing.T) {
	// Strongly seasonal series: a 24-step forecast should itself be
	// seasonal, not flat.
	clients := fedDataset(t, 1800, 2, 63)
	res, err := NewEngine(nil, smallEngineConfig(64)).Run(clients)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(clients, res, 65)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := dep.Models[0].Forecast(24)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := fc[0], fc[0]
	for _, v := range fc {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo < 1.5 {
		t.Errorf("24-step forecast range %v too flat for ±3 seasonal data: %v", hi-lo, fc)
	}
}

func TestDeployRequiresResult(t *testing.T) {
	clients := fedDataset(t, 600, 1, 66)
	if _, err := Deploy(clients, nil, 0); err == nil {
		t.Error("nil result accepted")
	}
	if _, err := Deploy(clients, &Result{}, 0); err == nil {
		t.Error("empty result accepted")
	}
}

func TestForecastBadHorizon(t *testing.T) {
	clients := fedDataset(t, 900, 1, 71)
	res, err := NewEngine(nil, smallEngineConfig(72)).Run(clients)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(clients, res, 73)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Models[0].Forecast(0); err == nil {
		t.Error("zero horizon accepted")
	}
}
