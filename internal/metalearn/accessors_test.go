package metalearn

import "sort"

// Test-only accessor: the knowledge-base tests read a record's
// ground-truth ranking.

// Ranking returns the algorithms of a record ordered by ascending
// grid-search loss — the ground-truth ranking MRR is computed against.
func (r Record) Ranking() []string {
	keys := make([]string, 0, len(r.AlgoLosses))
	for k := range r.AlgoLosses {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if r.AlgoLosses[keys[i]] != r.AlgoLosses[keys[j]] {
			return r.AlgoLosses[keys[i]] < r.AlgoLosses[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}
