package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported (choosing-metrics §1).
const minBeyond = 10

func sortedCopy(s []float64) []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank q-quantile (0 < q < 1) of an
// ascending slice: the smallest sample with at least q of the data at
// or below it. supported reports whether at least minBeyond samples
// lie strictly beyond that rank.
func percentile(sorted []float64, q float64) (v float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median is the p50 of an unsorted sample set (0 when empty).
func median(s []float64) float64 {
	v, _ := percentile(sortedCopy(s), 0.5)
	return v
}

func sum(s []float64) float64 {
	total := 0.0
	for _, v := range s {
		total += v
	}
	return total
}

func mean(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return sum(s) / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stalls counts the samples slower than 20× p50 (the workload's median
// small push) and sums their excess over it: the foreground cost of
// background compaction that a median cannot show.
func stalls(samples []float64, p50 float64) (count int, excess float64) {
	for _, v := range samples {
		if v > 20*p50 {
			count++
			excess += v - p50
		}
	}
	return count, excess
}
