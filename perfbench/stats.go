package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyondTail is how many samples must lie strictly above a reported tail
// percentile; with fewer, the tail has no sample support and the run is
// refused rather than reported.
const minBeyondTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, and how many samples lie strictly above it.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	value = sorted[rank-1]
	beyond = n - sort.Search(n, func(i int) bool { return sorted[i] > value })
	return value, beyond
}

// pct is the nearest-rank p-th percentile of sorted.
func pct(sorted []float64, p float64) float64 {
	v, _ := percentile(sorted, p)
	return v
}

// tail returns the p-th percentile of sorted, or an error when fewer than
// minBeyondTail samples lie beyond it.
func tail(sorted []float64, p float64) (float64, error) {
	v, beyond := percentile(sorted, p)
	if beyond < minBeyondTail {
		return 0, fmt.Errorf("p%g of %d samples has %d samples beyond it, need >= %d",
			p, len(sorted), beyond, minBeyondTail)
	}
	return v, nil
}

// median returns the median of values (unsorted input is copied).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload never
// reaches).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
