// Package label implements the flow classification model of Table 1: QoR
// values are bucketed into n+1 classes by percentile-derived
// determinators. Both the single-metric model (e.g. area-driven or
// delay-driven flows) and the multi-metric model are provided. Class 0
// holds the best flows (angel candidates) and class n the worst (devil
// candidates), and determinators are re-fit as the training set grows
// incrementally.
package label

import (
	"fmt"

	"flowgen/internal/stats"
	"flowgen/internal/synth"
)

// DefaultPercentiles are the paper's determinator percentiles for seven
// classes: {5, 15, 40, 65, 90, 95}.
var DefaultPercentiles = []float64{5, 15, 40, 65, 90, 95}

// Model classifies QoRs into len(percentile)+1 classes. For a
// multi-metric model the class is the worse (maximum) of the per-metric
// buckets, so class 0 means "best in every metric" and class n "worst in
// some metric", matching the conjunctive rows of Table 1.
type Model struct {
	Metrics       []synth.Metric
	Percentiles   []float64
	Determinators [][]float64 // per metric, ascending thresholds
}

// NumClasses returns the number of classes (determinators + 1).
func (m *Model) NumClasses() int { return len(m.Percentiles) + 1 }

// Fit derives the determinators from the labeled sample population. With
// the default percentiles and 1000 collected flows, x0 is the 50th least
// value and x5 the 50th largest, as in the paper.
func Fit(qors []synth.QoR, metrics []synth.Metric, percentiles []float64) (*Model, error) {
	if len(qors) == 0 {
		return nil, fmt.Errorf("label: no samples to fit")
	}
	if len(metrics) == 0 || len(metrics) > 2 {
		return nil, fmt.Errorf("label: need 1 or 2 metrics, got %d", len(metrics))
	}
	for i := 1; i < len(percentiles); i++ {
		if percentiles[i] <= percentiles[i-1] {
			return nil, fmt.Errorf("label: percentiles must be strictly increasing")
		}
	}
	m := &Model{
		Metrics:     append([]synth.Metric(nil), metrics...),
		Percentiles: append([]float64(nil), percentiles...),
	}
	for _, metric := range metrics {
		vals := make([]float64, len(qors))
		for i, q := range qors {
			vals[i] = q.Get(metric)
		}
		ds := make([]float64, len(percentiles))
		for i, p := range percentiles {
			ds[i] = stats.Percentile(vals, p)
		}
		m.Determinators = append(m.Determinators, ds)
	}
	return m, nil
}

// FitSingle fits a single-metric model with the paper's percentiles.
func FitSingle(qors []synth.QoR, metric synth.Metric) (*Model, error) {
	return Fit(qors, []synth.Metric{metric}, DefaultPercentiles)
}

// bucket places v into a class given ascending determinators: class 0 is
// v <= d[0], class i is d[i-1] < v <= d[i], class n is v > d[n-1].
func bucket(v float64, ds []float64) int {
	for i, d := range ds {
		if v <= d {
			return i
		}
	}
	return len(ds)
}

// Class labels one QoR.
func (m *Model) Class(q synth.QoR) int {
	worst := 0
	for mi, metric := range m.Metrics {
		c := bucket(q.Get(metric), m.Determinators[mi])
		if c > worst {
			worst = c
		}
	}
	return worst
}

// Histogram returns the class population counts of the batch.
func (m *Model) Histogram(qors []synth.QoR) []int {
	h := make([]int, m.NumClasses())
	for _, q := range qors {
		h[m.Class(q)]++
	}
	return h
}
