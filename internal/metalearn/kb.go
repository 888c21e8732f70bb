// Package metalearn implements the offline meta-learning phase of
// Figure 2: building the knowledge base (aggregated meta-features of
// each dataset + the best forecasting algorithm found by grid search),
// persisting it, training a meta-model classifier on it, and the
// MRR@3/F1 evaluation harness behind Table 4.
package metalearn

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"

	"fedforecaster/internal/features"
	"fedforecaster/internal/metafeat"
	"fedforecaster/internal/pipeline"
	"fedforecaster/internal/search"
	"fedforecaster/internal/timeseries"
)

// Record is one knowledge-base row: a dataset's aggregated
// meta-feature vector, the grid-search loss of every algorithm, and
// the winning algorithm label.
type Record struct {
	Dataset       string             `json:"dataset"`
	MetaFeatures  []float64          `json:"meta_features"`
	AlgoLosses    map[string]float64 `json:"algo_losses"`
	BestAlgorithm string             `json:"best_algorithm"`
}

// KnowledgeBase is the persisted collection of records.
type KnowledgeBase struct {
	FeatureNames []string `json:"feature_names"`
	Records      []Record `json:"records"`
}

// Save writes the knowledge base as JSON.
func (kb *KnowledgeBase) Save(path string) error {
	data, err := json.MarshalIndent(kb, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a knowledge base written by Save.
func Load(path string) (*KnowledgeBase, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var kb KnowledgeBase
	if err := json.Unmarshal(data, &kb); err != nil {
		return nil, fmt.Errorf("metalearn: parsing %s: %w", path, err)
	}
	return &kb, nil
}

// BuildRecord runs the paper's KB-labelling procedure on one federated
// dataset: aggregate meta-features across the client splits, grid
// search every Table 2 algorithm (gridPerParam levels per numeric
// hyper-parameter), and record the best algorithm by global validation
// loss.
func BuildRecord(name string, clients []*timeseries.Series, spaces []search.Space,
	gridPerParam int, splits pipeline.Splits, seed int64) (Record, error) {
	agg, _ := metafeat.ComputeAggregated(clients)
	eng := features.NewEngineer(agg)
	rec := Record{
		Dataset:      name,
		MetaFeatures: agg.Vector(),
		AlgoLosses:   map[string]float64{},
	}
	for _, sp := range spaces {
		best := -1.0
		found := false
		for i, cfg := range sp.Grid(gridPerParam) {
			loss, err := pipeline.GlobalLoss(clients, eng, cfg, splits, "valid", seed+int64(i))
			if err != nil {
				continue
			}
			if !found || loss < best {
				best, found = loss, true
			}
		}
		if found {
			rec.AlgoLosses[sp.Algorithm] = best
		}
	}
	if len(rec.AlgoLosses) == 0 {
		return rec, errors.New("metalearn: no algorithm produced a valid loss")
	}
	rec.BestAlgorithm = bestOf(rec.AlgoLosses)
	return rec, nil
}

func bestOf(losses map[string]float64) string {
	best := ""
	bestLoss := 0.0
	first := true
	// Deterministic tie-breaking: iterate sorted keys.
	keys := make([]string, 0, len(losses))
	for k := range losses {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if first || losses[k] < bestLoss {
			best, bestLoss, first = k, losses[k], false
		}
	}
	return best
}
