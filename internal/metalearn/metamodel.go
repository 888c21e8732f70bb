package metalearn

import (
	"errors"
	"fmt"
	"sort"

	"fedforecaster/internal/ensemble"
	"fedforecaster/internal/linmodel"
	"fedforecaster/internal/model"
	"fedforecaster/internal/neural"
)

// MetaModel recommends forecasting algorithms for a new federated
// dataset from its aggregated meta-feature vector (the online phase of
// Figure 2).
type MetaModel struct {
	clf          model.Classifier
	featureNames []string
}

// TrainMetaModel fits the classifier on the knowledge base.
func TrainMetaModel(kb *KnowledgeBase, clf model.Classifier) (*MetaModel, error) {
	if len(kb.Records) == 0 {
		return nil, errors.New("metalearn: empty knowledge base")
	}
	x := make([][]float64, len(kb.Records))
	y := make([]string, len(kb.Records))
	for i, r := range kb.Records {
		x[i] = r.MetaFeatures
		y[i] = r.BestAlgorithm
	}
	if err := clf.Fit(x, y); err != nil {
		return nil, fmt.Errorf("metalearn: training meta-model: %w", err)
	}
	return &MetaModel{clf: clf, featureNames: kb.FeatureNames}, nil
}

// RecommendTopK returns the k most promising algorithms for the
// meta-feature vector, ranked by predicted probability (K = 3 in the
// paper's setup).
func (m *MetaModel) RecommendTopK(vec []float64, k int) []string {
	probas := m.clf.PredictProba([][]float64{vec})[0]
	type lp struct {
		label string
		p     float64
	}
	all := make([]lp, 0, len(probas))
	for l, p := range probas {
		all = append(all, lp{l, p})
	}
	sort.Slice(all, func(i, j int) bool {
		//lint:allow floateq deterministic sort tie-break compares stored values bitwise; no arithmetic separates them
		if all[i].p != all[j].p {
			return all[i].p > all[j].p
		}
		return all[i].label < all[j].label
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].label
	}
	return out
}

// MetaModelNames lists the Table 4 classifier zoo in the paper's
// order.
func MetaModelNames() []string {
	return []string{
		"XGBClassifier",
		"Logistic Regression",
		"Gradient Boosting",
		"Random Forest",
		"CatBoost",
		"LightGBM",
		"Extra Trees",
		"MLPClassifier",
	}
}

// NewClassifier constructs a Table 4 classifier by name with the
// defaults used in the comparison. Seed controls all stochastic
// trainers; the gradient-boosting, LightGBM and CatBoost fits draw
// nothing.
func NewClassifier(name string, seed int64) (model.Classifier, error) {
	switch name {
	case "XGBClassifier":
		return ensemble.NewXGBClassifier(ensemble.XGBOptions{
			NumTrees: 40, MaxDepth: 4, LearningRate: 0.2, Lambda: 1, Seed: seed,
		}), nil
	case "Logistic Regression":
		return linmodel.NewLogisticRegression(1), nil
	case "Gradient Boosting":
		return ensemble.NewGradientBoostingClassifier(ensemble.GBMOptions{NumTrees: 40, MaxDepth: 3, LearningRate: 0.15}), nil
	case "Random Forest":
		return ensemble.NewRandomForestClassifier(ensemble.ForestOptions{
			NumTrees: 120, MaxDepth: 12, Seed: seed,
		}), nil
	case "CatBoost":
		return ensemble.NewCatBoostClassifier(ensemble.CatBoostOptions{NumTrees: 40, Depth: 4, LearningRate: 0.2}), nil
	case "LightGBM":
		return ensemble.NewLGBMClassifier(ensemble.LGBMOptions{NumTrees: 40, NumLeaves: 15, LearningRate: 0.15}), nil
	case "Extra Trees":
		return ensemble.NewExtraTreesClassifier(ensemble.ForestOptions{
			NumTrees: 120, MaxDepth: 12, Seed: seed,
		}), nil
	case "MLPClassifier":
		m := neural.NewMLPClassifier([]int{64, 32})
		m.Epochs = 150
		m.Seed = seed
		return m, nil
	default:
		return nil, fmt.Errorf("metalearn: unknown meta-model %q", name)
	}
}
