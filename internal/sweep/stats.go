package sweep

import (
	"math"
	"sort"
)

// Dist summarizes one metric's distribution across a cell's replicates.
// Stddev is the population standard deviation; P50/P99 use the nearest-rank
// definition on the sorted samples. All fields are exact functions of the
// sample multiset, so two identical runs marshal identically.
type Dist struct {
	Count  int     `json:"count"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P99    float64 `json:"p99"`
}

// dist computes the summary of samples (empty input = zero Dist with
// Count 0; callers treat that as "no data", never as a measured zero).
func dist(samples []float64) Dist {
	n := len(samples)
	if n == 0 {
		return Dist{}
	}
	sorted := make([]float64, n)
	copy(sorted, samples)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	mean := sum / float64(n)
	var sq float64
	for _, v := range sorted {
		d := v - mean
		sq += d * d
	}
	return Dist{
		Count:  n,
		Mean:   mean,
		Stddev: math.Sqrt(sq / float64(n)),
		Min:    sorted[0],
		Max:    sorted[n-1],
		P50:    percentile(sorted, 50),
		P99:    percentile(sorted, 99),
	}
}

// percentile is the nearest-rank percentile of an ascending-sorted slice.
func percentile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// agg extracts one aggregate from a Dist by name ("count" is the sample
// count; parseAssertion admits no other name).
func (d Dist) agg(name string) float64 {
	return map[string]float64{
		"mean": d.Mean, "stddev": d.Stddev, "min": d.Min, "max": d.Max,
		"p50": d.P50, "p99": d.P99, "count": float64(d.Count),
	}[name]
}
