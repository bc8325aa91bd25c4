package main

import (
	"fmt"
	"sort"
)

// percentile returns the nearest-rank q-quantile of sorted (ascending) and
// the number of samples strictly beyond it. It refuses a percentile with
// fewer than minTail samples beyond it: at that depth the value is one
// scheduler hiccup, not a property of the system.
func percentile(sorted []float64, q float64, minTail int) (v float64, beyond int, err error) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, fmt.Errorf("p%g of no samples", q*100)
	}
	rank := int(q*float64(n)+0.999999999) - 1 // ceil(q·n) − 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	beyond = n - 1 - rank
	if beyond < minTail {
		return 0, beyond, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", q*100, n, beyond, minTail)
	}
	return sorted[rank], beyond, nil
}

func sortedCopy(xs []float64) []float64 {
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

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which the driver uses to judge a metric's spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
