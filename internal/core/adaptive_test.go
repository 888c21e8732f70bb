package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fedforecaster/internal/fedtrace"
	"fedforecaster/internal/obs"
	"fedforecaster/internal/timeseries"
)

// shiftedDataset produces a federated dataset whose generating process
// changes when shift is true (level + dynamics change → deployed
// models degrade).
func shiftedDataset(total, clients int, shift bool, seed int64) []*timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, total)
	vals[0] = 10
	for i := 1; i < total; i++ {
		if !shift {
			vals[i] = 10 + 0.8*(vals[i-1]-10) + 0.3*rng.NormFloat64()
		} else {
			// Different level, stronger noise, added seasonality.
			vals[i] = 40 + 0.3*(vals[i-1]-40) + 5*math.Sin(2*math.Pi*float64(i)/7) + 2*rng.NormFloat64()
		}
	}
	s := timeseries.New("drift", vals, timeseries.RateDaily)
	parts, err := s.PartitionClients(clients, 50)
	if err != nil {
		panic(err)
	}
	return parts
}

func TestAdaptiveRunnerStableDataNoRetune(t *testing.T) {
	engine := NewEngine(nil, smallEngineConfig(1))
	runner := NewAdaptiveRunner(engine, 2.0)
	clients := shiftedDataset(1200, 3, false, 2)
	if _, err := runner.Deploy(clients); err != nil {
		t.Fatal(err)
	}
	// Same-distribution fresh draw: must not re-tune.
	fresh := shiftedDataset(1200, 3, false, 3)
	retuned, loss, err := runner.Check(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if retuned {
		t.Errorf("re-tuned on stable data (loss %v vs deployed %v)", loss, runner.Last().BestValidLoss)
	}
}

func TestAdaptiveRunnerDetectsDrift(t *testing.T) {
	engine := NewEngine(nil, smallEngineConfig(4))
	runner := NewAdaptiveRunner(engine, 1.5)
	clients := shiftedDataset(1200, 3, false, 5)
	dep, err := runner.Deploy(clients)
	if err != nil {
		t.Fatal(err)
	}
	// Distribution shift: losses must blow past the tolerance and
	// trigger a re-tune; the new deployment replaces the old.
	shifted := shiftedDataset(1200, 3, true, 6)
	retuned, loss, err := runner.Check(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if !retuned {
		t.Fatalf("drift not detected (loss %v vs deployed %v)", loss, dep.BestValidLoss)
	}
	if runner.Last() == dep {
		t.Error("deployment not replaced after re-tune")
	}
	// The re-tuned model should fit the new regime better than the old
	// validation loss measured on it.
	if runner.Last().BestValidLoss >= loss {
		t.Errorf("re-tuned loss %v not better than drifted loss %v", runner.Last().BestValidLoss, loss)
	}
}

func TestAdaptiveRunnerCheckBeforeDeploy(t *testing.T) {
	runner := NewAdaptiveRunner(NewEngine(nil, smallEngineConfig(7)), 1.5)
	if _, _, err := runner.Check(shiftedDataset(1200, 3, false, 8)); err != ErrNotDeployed {
		t.Fatalf("err = %v, want ErrNotDeployed", err)
	}
}

// TestAdaptiveRunnerCheckReproducesDeployedLoss: at BatchSize 1, a
// drift check on the deployment's own clients scores the deployed
// configuration on the deployed schema, so it returns the deployed
// validation loss bit for bit and does not re-tune.
func TestAdaptiveRunnerCheckReproducesDeployedLoss(t *testing.T) {
	clients := exogDataset(t)
	for _, tc := range []struct {
		name string
		set  func(*EngineConfig)
	}{
		{"plain", func(c *EngineConfig) { c.FeatureSelection = false }},
		{"feature-selection", func(c *EngineConfig) { c.FeatureSelection = true }},
		{"exog-channels", func(c *EngineConfig) { c.ExogChannels = []string{"driver"} }},
		{"privacy-epsilon", func(c *EngineConfig) { c.PrivacyEpsilon = 0.5 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallEngineConfig(52)
			tc.set(&cfg)
			runner := NewAdaptiveRunner(NewEngine(nil, cfg), 1.5)
			dep, err := runner.Deploy(clients)
			if err != nil {
				t.Fatal(err)
			}
			retuned, loss, err := runner.Check(clients)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(loss) != math.Float64bits(dep.BestValidLoss) {
				t.Errorf("check loss %v, deployed loss %v", loss, dep.BestValidLoss)
			}
			if retuned {
				t.Error("re-tuned on the deployment's own data")
			}
		})
	}
}

// TestAdaptiveRunnerCheckPrivatizesMetaFeatures: under PrivacyEpsilon
// the drift check's clients perturb their meta-features as the
// deployment's did, so the check aggregates the same privatized
// meta-features, not the raw ones.
func TestAdaptiveRunnerCheckPrivatizesMetaFeatures(t *testing.T) {
	clients := fedDataset(t, 1200, 3, 53)
	cfg := smallEngineConfig(54)
	cfg.PrivacyEpsilon = 0.5
	runner := NewAdaptiveRunner(NewEngine(nil, cfg), 1.5)
	dep, err := runner.Deploy(clients)
	if err != nil {
		t.Fatal(err)
	}
	check, err := runner.driftCheck(clients)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(check.AggregatedMeta, dep.AggregatedMeta) {
		t.Errorf("check meta-features %+v\ndeployed %+v", check.AggregatedMeta, dep.AggregatedMeta)
	}
	cfg.PrivacyEpsilon = 0
	raw, err := NewEngine(nil, cfg).runInProc(clients, obs.SpanRun, 0, []enginePhase{phaseMetaFeatures})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(check.AggregatedMeta, raw.AggregatedMeta) {
		t.Error("check aggregated the raw meta-features")
	}
}

// TestAdaptiveRunnerTracedRunsKeepTheirSpans: every run a runner
// drives — deployment, drift checks, re-tune — has its own span
// identity, so the trace forest holds each run as its own root and
// loses no span to an ID collision.
func TestAdaptiveRunnerTracedRunsKeepTheirSpans(t *testing.T) {
	col := fedtrace.NewCollector()
	cfg := smallEngineConfig(4)
	cfg.Recorder = col
	runner := NewAdaptiveRunner(NewEngine(nil, cfg), 1.5)
	if _, err := runner.Deploy(shiftedDataset(1200, 3, false, 5)); err != nil {
		t.Fatal(err)
	}
	shifted := shiftedDataset(1200, 3, true, 6)
	if retuned, _, err := runner.Check(shifted); err != nil || !retuned {
		t.Fatalf("drifted check: retuned %v, err %v", retuned, err)
	}
	if retuned, _, err := runner.Check(shifted); err != nil || retuned {
		t.Fatalf("check after re-tune: retuned %v, err %v", retuned, err)
	}

	events := col.Events()
	starts := 0
	for _, ev := range events {
		if _, ok := ev.(obs.SpanStart); ok {
			starts++
		}
	}
	var roots []string
	kept := 0
	var walk func(*obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		kept++
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, root := range obs.BuildSpanForest(events) {
		roots = append(roots, root.Kind+":"+root.Name)
		walk(root)
	}
	want := []string{"run:run", "run:drift-check", "run:run", "run:drift-check"}
	if !reflect.DeepEqual(roots, want) {
		t.Errorf("roots %v, want %v", roots, want)
	}
	if kept != starts {
		t.Errorf("forest holds %d spans, %d started", kept, starts)
	}
}
