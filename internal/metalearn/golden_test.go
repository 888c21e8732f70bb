package metalearn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"testing"
)

var updateMeta = flag.Bool("update", false, "print new TestGoldenMetaModelDigests pins instead of checking them")

// kbPath is the committed knowledge base at the module root.
var kbPath = filepath.Join("..", "..", "kb.json")

// probaDigest hashes predicted distributions bit for bit: per row,
// every label in sorted order and its probability's bits.
func probaDigest(proba []map[string]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, dist := range proba {
		labels := make([]string, 0, len(dist))
		for l := range dist {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			h.Write([]byte(l))
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(dist[l]))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenMetaModelDigests pins every Table 4 classifier bit for bit:
// each is fitted at seed 1 on the first 80% of kb.json's records, and
// its PredictProba on the other 20% is hashed. Any change to a
// classifier's training arithmetic, its rng draws or its label order
// shows up here.
func TestGoldenMetaModelDigests(t *testing.T) {
	kb, err := Load(kbPath)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(kb.Records) * 8 / 10
	train := &KnowledgeBase{FeatureNames: kb.FeatureNames, Records: kb.Records[:cut]}
	var held [][]float64
	for _, r := range kb.Records[cut:] {
		held = append(held, r.MetaFeatures)
	}
	want := map[string]string{
		"XGBClassifier":       "68c49a4807fb2ac5c4614ca32b725712c0d6f5471990cc16fc983f2a16f515b3",
		"Logistic Regression": "789c23b28713b5010f7a6fdba2f90849f96254d881851f437cb05039103df364",
		"Gradient Boosting":   "a6f8d0e49e13707db9911c5b941510c96b8fb03ae8beba4e85b382c79ebe1d18",
		"Random Forest":       "524834aa9c0f411ba7e54feff17ffb250721e0dc86ad07a0d3cafcbeaa3ca16b",
		"CatBoost":            "5ae84001decedca01abf7cc57bb8f9ee022b89d5ed1da31350f5f581206162bc",
		"LightGBM":            "463a165f755c53de2c03baffeda3bf4eb3d6933cad930b5ad60f11aff45a36d8",
		"Extra Trees":         "699bae72b8131141c312e8e8c3b89e6b9edb3a6d4b8f0a44ea79495531951ee0",
		"MLPClassifier":       "77736b0813aed833e5468deca9d4535c04694c61010e372e93ef5720b89f6493",
	}
	for _, name := range MetaModelNames() {
		clf, err := NewClassifier(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := TrainMetaModel(train, clf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := probaDigest(clf.PredictProba(held))
		if *updateMeta {
			fmt.Printf("\t\t%q: %q,\n", name, got)
			continue
		}
		if got != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got, want[name])
		}
	}
}
