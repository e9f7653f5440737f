package main

import (
	"fmt"
	"sort"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which must be sorted ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(float64(len(sorted))*p/100+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// tailLadder are the percentiles a timing's tail may be reported at,
// each with the number of samples per sample beyond it.
var tailLadder = []struct {
	p   float64
	per int
}{{99.9, 1000}, {99, 100}, {95, 20}, {90, 10}, {75, 4}}

// supportedTail returns the highest percentile of the ladder that still
// has at least ten of n samples beyond it, and 50 when none has: a tail
// read off fewer samples is an anecdote, not a percentile.
func supportedTail(n int) float64 {
	for _, t := range tailLadder {
		if n/t.per >= 10 {
			return t.p
		}
	}
	return 50
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return ratio(t, float64(len(xs)))
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the acceptance check uses; with fewer than two values both are the
// single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// ratio returns a/b, and 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// describeTiming renders "p50 … / pNN … (n=…)" for the human table.
func describeTiming(ms []float64) string {
	if len(ms) == 0 {
		return "no samples"
	}
	s := sorted(ms)
	p := supportedTail(len(s))
	return fmt.Sprintf("p50 %.3f ms, p%g %.3f ms (n=%d)", percentile(s, 50), p, percentile(s, p), len(s))
}
