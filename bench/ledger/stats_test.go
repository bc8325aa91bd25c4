package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	v, beyond, err := percentile(seq(200), 0.95, 10)
	if err != nil || v != 190 || beyond != 10 {
		t.Fatalf("p95 of 1..200 = %v (beyond %d, err %v), want 190 with 10 beyond", v, beyond, err)
	}
	if _, beyond, err := percentile(seq(199), 0.95, 10); err == nil {
		t.Fatalf("p95 of 199 samples was reported with only %d beyond", beyond)
	}
	if v, beyond, err := percentile(seq(100), 0.50, 10); err != nil || v != 50 || beyond != 50 {
		t.Fatalf("p50 of 1..100 = %v (beyond %d, err %v), want 50 with 50 beyond", v, beyond, err)
	}
	if _, _, err := percentile(nil, 0.5, 0); err == nil {
		t.Fatal("a percentile of no samples was reported")
	}
}

// The driver judges spread with Python's statistics.quantiles(xs, n=4); these
// are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{seq(5), [3]float64{1.5, 3, 4.5}},
		{[]float64{9, 1, 4, 4, 7, 3}, [3]float64{2.5, 4, 7.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("median is wrong")
	}
}
