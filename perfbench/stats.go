package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it as a tail.
const minBeyond = 10

// tailCandidates are the percentiles a tail is chosen from, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// Tail is the highest candidate percentile of a sample set that still
// has at least minBeyond samples above it.
type Tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
}

// beyond counts the samples that lie strictly above the p-th percentile
// of n samples, under the nearest-rank definition percentile uses.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// sorted samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error (99.9/100*10000 > 9990) from
	// pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs (0 when xs
// is empty). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(len(s), p)-1]
}

// median is the 50th percentile, averaging the middle pair for an even
// count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail picks the highest candidate percentile with at least minBeyond
// samples above it. With too few samples for that, it picks p75, which
// leaves a quarter of them above it, so that one or two slow samples do
// not set the tail; with no sample above p75 (one sample), it reports
// the maximum as the 100th percentile.
func tail(xs []float64) Tail {
	n := len(xs)
	for _, p := range tailCandidates {
		if beyond(n, p) >= minBeyond {
			return Tail{Value: percentile(xs, p), Percentile: p, Samples: n}
		}
	}
	if beyond(n, 75) >= 1 {
		return Tail{Value: percentile(xs, 75), Percentile: 75, Samples: n}
	}
	return Tail{Value: percentile(xs, 100), Percentile: 100, Samples: n}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
