package synth

import "flowgen/internal/obs"

// RegisterMetrics exports the engine's memoization statistics as
// callback-backed gauges on o, sampled at scrape time (each sample
// takes the memo mutex briefly; scrapes are rare). The series mirror
// MemoStats field-for-field so a dashboard can reconstruct the same
// sharing picture /v1/stats shows. A nil registry is a no-op.
func (e *Engine) RegisterMetrics(o *obs.Registry) {
	stat := func(pick func(MemoStats) int) func() float64 {
		return func() float64 { return float64(pick(e.MemoStats())) }
	}
	o.GaugeFunc("flowgen_synth_memo_flows", "Flows evaluated through the memoized path.",
		stat(func(s MemoStats) int { return s.Flows }))
	o.GaugeFunc("flowgen_synth_memo_trie_nodes", "Distinct transformation prefixes across batches.",
		stat(func(s MemoStats) int { return s.TrieNodes }))
	o.GaugeFunc("flowgen_synth_memo_direct_steps", "Transformation applications a direct evaluator would run.",
		stat(func(s MemoStats) int { return s.DirectSteps }))
	o.GaugeFunc("flowgen_synth_memo_transforms_run", "Transformation applications actually executed.",
		stat(func(s MemoStats) int { return s.TransformsRun }))
	o.GaugeFunc("flowgen_synth_memo_transition_hits", "Applications skipped via the convergence transition cache.",
		stat(func(s MemoStats) int { return s.TransitionHits }))
	o.GaugeFunc("flowgen_synth_memo_evicted_misses", "Known transitions recomputed because the target graph was evicted.",
		stat(func(s MemoStats) int { return s.EvictedMisses }))
	o.GaugeFunc("flowgen_synth_memo_victim_hits", "Evicted transition targets resurrected from the victim cache.",
		stat(func(s MemoStats) int { return s.VictimHits }))
	o.GaugeFunc("flowgen_synth_memo_map_calls", "Technology-mapping runs executed.",
		stat(func(s MemoStats) int { return s.MapCalls }))
	o.GaugeFunc("flowgen_synth_memo_map_cache_hits", "Leaf evaluations served by the final-graph QoR cache.",
		stat(func(s MemoStats) int { return s.MapCacheHits }))
	o.GaugeFunc("flowgen_synth_memo_clones", "Graph clones made for multi-consumer prefixes.",
		stat(func(s MemoStats) int { return s.Clones }))
	o.GaugeFunc("flowgen_synth_memo_peak_graphs", "Peak simultaneously cached intermediate graphs.",
		stat(func(s MemoStats) int { return s.PeakGraphs }))
	o.GaugeFunc("flowgen_synth_memo_factor_hits", "Cut and cone tables found in the engine's factoring library.",
		stat(func(s MemoStats) int { return s.FactorHits }))
	o.GaugeFunc("flowgen_synth_memo_factor_misses", "Cut and cone tables factored because the library lacked them.",
		stat(func(s MemoStats) int { return s.FactorMisses }))
	o.GaugeFunc("flowgen_synth_library_entries", "Cut and cone tables the engine's factoring library holds.",
		stat(func(s MemoStats) int { return s.LibraryEntries }))
	o.GaugeFunc("flowgen_synth_library_bytes", "Bytes the factoring library's arenas and index take (bounded by its budget).",
		stat(func(s MemoStats) int { return s.LibraryBytes }))
	o.GaugeFunc("flowgen_synth_memo_speedup_factor", "Direct steps divided by transformations actually run.",
		func() float64 { return e.MemoStats().SpeedupFactor() })
}
