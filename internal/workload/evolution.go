package workload

// UnseenTableFraction reproduces the Table 1 measurement: given a trace
// sorted in time, train on every query up to and including cutoffDay, then
// report the fraction of distinct tables referenced by queries in the next
// window days that the training period never saw.
func UnseenTableFraction(traces []*Trace, cutoffDay, window int) float64 {
	seen := map[string]bool{}
	future := map[string]bool{}
	for _, t := range traces {
		switch {
		case t.Day <= cutoffDay:
			for _, tbl := range t.Plan.Tables() {
				seen[tbl] = true
			}
		case t.Day <= cutoffDay+window:
			for _, tbl := range t.Plan.Tables() {
				future[tbl] = true
			}
		}
	}
	if len(future) == 0 {
		return 0
	}
	unseen := 0
	for tbl := range future {
		if !seen[tbl] {
			unseen++
		}
	}
	return float64(unseen) / float64(len(future))
}
