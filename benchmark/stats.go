package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is the sample-count rule for percentiles: a percentile is
// reported only when at least this many samples lie beyond it, so one slow
// outlier cannot set the figure.
const tailBeyond = 10

// minSamplesFor is the smallest sample that supports the p-th percentile
// under the sample-count rule.
func minSamplesFor(p float64) int {
	return int(math.Ceil(tailBeyond * 100 / (100 - p)))
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of a
// sorted sample; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median is the 50th percentile of an unsorted sample (the input is not
// modified).
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// sample is one timed observation: when it was due (relative to the start
// of the measured window) and how long it took.
type sample struct {
	at  time.Duration
	dur time.Duration
}

// windowPercentiles splits the samples into consecutive windows of the
// given length by their due time and returns the p-th percentile of each
// window that holds at least minSamples, by window index.
func windowPercentiles(samples []sample, window time.Duration, p float64, minSamples int) map[int64]float64 {
	buckets := map[int64][]float64{}
	for _, s := range samples {
		if s.at < 0 {
			continue // before the measured window
		}
		w := int64(s.at / window)
		buckets[w] = append(buckets[w], ms(s.dur))
	}
	out := map[int64]float64{}
	for w, b := range buckets {
		if len(b) >= minSamples {
			sort.Float64s(b)
			out[w] = percentile(b, p)
		}
	}
	return out
}

// acrossWindows returns the median over windows of each window's p-th
// percentile, and the number of windows used. One window with a stall sets
// a whole-run tail percentile; it cannot set this.
func acrossWindows(samples []sample, window time.Duration, p float64, minSamples int) (float64, int) {
	var per []float64
	for _, v := range windowPercentiles(samples, window, p, minSamples) {
		per = append(per, v)
	}
	return median(per), len(per)
}

// quartiles returns Q1, the median and Q3 by the same rule Python's
// statistics.quantiles(values, n=4) uses (exclusive method), so spreads
// printed here match what the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is (Q3 − Q1) / median: the run-to-run spread the driver gates on.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMS converts and sorts a duration sample into milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// durationsUS converts and sorts a duration sample into microseconds.
func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	sort.Float64s(out)
	return out
}
