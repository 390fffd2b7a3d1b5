package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs (nearest rank on a sorted copy);
// NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// us and ms convert a duration to fractional micro- and milliseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tail reports whether xs has at least ten samples beyond its
// q-quantile — the rule for reporting a percentile at all.
func tail(xs []float64, q float64) bool { return float64(len(xs))*(1-q) >= 10 }
