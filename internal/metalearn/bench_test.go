package metalearn

import (
	"strings"
	"testing"
)

// BenchmarkMetaModels prices one fit of each Table 4 classifier on the
// whole committed knowledge base (kb.json: 280 records × 51
// meta-features, 6 labels), the shape the meta-model comparison and
// the engine's recommend phase train on.
func BenchmarkMetaModels(b *testing.B) {
	kb, err := Load(kbPath)
	if err != nil {
		b.Fatal(err)
	}
	x := make([][]float64, len(kb.Records))
	y := make([]string, len(kb.Records))
	for i, r := range kb.Records {
		x[i] = r.MetaFeatures
		y[i] = r.BestAlgorithm
	}
	for _, name := range MetaModelNames() {
		b.Run("model="+strings.ReplaceAll(name, " ", "-"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clf, err := NewClassifier(name, 1)
				if err != nil {
					b.Fatal(err)
				}
				if err := clf.Fit(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
