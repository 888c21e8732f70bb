// Quickstart: automated federated forecasting in ~30 lines.
//
// A single long daily series (synthetic energy-style signal) is
// partitioned chronologically into 5 clients; FedForecaster then
// automates the whole pipeline — meta-features, feature engineering,
// algorithm selection, Bayesian hyper-parameter tuning — and reports
// the selected configuration and its held-out test MSE.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"fedforecaster"
)

func main() {
	// Generate a daily series with weekly seasonality and a mild trend.
	rng := rand.New(rand.NewSource(42))
	values := make([]float64, 3000)
	for i := range values {
		weekly := 5 * math.Sin(2*math.Pi*float64(i)/7)
		values[i] = 100 + 0.01*float64(i) + weekly + rng.NormFloat64()
	}
	series := fedforecaster.NewSeries("quickstart", values, fedforecaster.RateDaily)

	// Split chronologically into 5 federated clients (≥ 500 samples each,
	// the paper's minimum).
	clients, err := series.PartitionClients(5, 500)
	if err != nil {
		log.Fatal(err)
	}

	result, err := fedforecaster.Run(clients, fedforecaster.Options{
		Iterations: 10,
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println("best configuration:", result.BestConfig)
	fmt.Printf("validation loss:     %.4f\n", result.BestValidLoss)
	fmt.Printf("held-out test MSE:   %.4f\n", result.TestMSE)
	fmt.Printf("features kept:       %d of %d\n", len(result.KeptFeatures), result.NumFeatures)

	// Deploy and forecast the next week for client 0.
	dep, err := fedforecaster.Deploy(clients, result, 2)
	if err != nil {
		log.Fatal(err)
	}
	forecast, err := dep.Models[0].Forecast(7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("next 7 days (client 0): %.2f\n", forecast)
}
