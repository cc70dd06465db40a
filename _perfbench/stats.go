package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// beyond counts the samples strictly above the nearest-rank q-quantile
// of n samples.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// percentile returns the nearest-rank q-quantile of samples, and false
// when fewer than minBeyond samples lie beyond it: such a percentile is
// not reported.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 || beyond(n, q) < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], true
}

// median is the middle sample (mean of the two middle ones for even n);
// 0 for no samples. Medians of a handful of repetitions are how passes
// are reported, so unlike percentile it needs no samples beyond it.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var t float64
	for _, v := range samples {
		t += v
	}
	return t / float64(len(samples))
}

// latencyPair reports p50 and p95 of samples, or an error naming the
// sample count when either lacks minBeyond samples beyond it.
func latencyPair(samples []float64) (p50, p95 float64, err error) {
	var ok50, ok95 bool
	p50, ok50 = percentile(samples, 0.50)
	p95, ok95 = percentile(samples, 0.95)
	if !ok50 || !ok95 {
		return 0, 0, fmt.Errorf("%d latency samples: p95 needs at least %d beyond it", len(samples), minBeyond)
	}
	return p50, p95, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
