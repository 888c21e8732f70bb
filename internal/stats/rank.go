package stats

import "fmt"

// Ranks returns the 1-based ranks of xs in ascending order (rank 1 is
// the smallest value), with ties receiving average ranks. Used for the
// "overall ranking" row of Table 3, where each method is ranked per
// dataset by MSE.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort of indices by value (n is small in our use).
	for i := 1; i < n; i++ {
		j := i
		for j > 0 && xs[idx[j-1]] > xs[idx[j]] {
			idx[j-1], idx[j] = idx[j], idx[j-1]
			j--
		}
	}
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		//lint:allow floateq tie detection compares stored values bitwise; no arithmetic separates them
		for j < n && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j+1) / 2
		for k := i; k < j; k++ {
			ranks[idx[k]] = avg
		}
		i = j
	}
	return ranks
}

// MRRAtK computes the mean reciprocal rank at cutoff k: for each query,
// the reciprocal of the 1-based position of the true label within the
// top-k predictions (0 when absent). This is the metric the paper
// optimizes for meta-model selection (MRR@3, Section 5.3).
func MRRAtK(predicted [][]string, truth []string, k int) float64 {
	if len(predicted) == 0 {
		return 0
	}
	var total float64
	for i, preds := range predicted {
		limit := k
		if limit > len(preds) {
			limit = len(preds)
		}
		for pos := 0; pos < limit; pos++ {
			if preds[pos] == truth[i] {
				total += 1 / float64(pos+1)
				break
			}
		}
	}
	return total / float64(len(predicted))
}

// F1Macro computes the macro-averaged F1 score over all labels present
// in either truth or prediction. Mismatched lengths are a data-shape
// condition (predictions and ground truth from different splits), so
// they surface as an error rather than a panic.
func F1Macro(pred, truth []string) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("stats: F1Macro requires equal-length slices (got %d and %d)", len(pred), len(truth))
	}
	labels := map[string]bool{}
	for _, t := range truth {
		labels[t] = true
	}
	for _, p := range pred {
		labels[p] = true
	}
	if len(labels) == 0 {
		return 0, nil
	}
	var sum float64
	for label := range labels {
		var tp, fp, fn float64
		for i := range truth {
			pIs := pred[i] == label
			tIs := truth[i] == label
			switch {
			case pIs && tIs:
				tp++
			case pIs && !tIs:
				fp++
			case !pIs && tIs:
				fn++
			}
		}
		var f1 float64
		if tp > 0 {
			prec := tp / (tp + fp)
			rec := tp / (tp + fn)
			f1 = 2 * prec * rec / (prec + rec)
		}
		sum += f1
	}
	return sum / float64(len(labels)), nil
}
