package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarize(t *testing.T) {
	cases := []struct {
		name                    string
		xs                      []float64
		min, q1, med, q3, maxim float64
	}{
		{"one sample", []float64{7}, 7, 7, 7, 7, 7},
		{"two samples interpolate", []float64{4, 2}, 2, 2.5, 3, 3.5, 4},
		{"odd count, unsorted", []float64{5, 1, 3, 2, 4}, 1, 2, 3, 4, 5},
		{"even count", []float64{1, 2, 3, 4}, 1, 1.75, 2.5, 3.25, 4},
		{"ties", []float64{2, 2, 2, 9}, 2, 2, 2, 3.75, 9},
	}
	for _, c := range cases {
		s := summarize(c.xs, "ms")
		if s.N != len(c.xs) || s.Unit != "ms" || !near(s.Value, c.med) ||
			!near(s.Min, c.min) || !near(s.Q1, c.q1) || !near(s.Median, c.med) || !near(s.Q3, c.q3) || !near(s.Max, c.maxim) {
			t.Errorf("%s: got %+v, want min %g q1 %g median %g q3 %g max %g", c.name, s, c.min, c.q1, c.med, c.q3, c.maxim)
		}
	}
	if !near(median([]float64{3, 1, 2}), 2) || !near(mean([]float64{1, 2, 6}), 3) {
		t.Error("median or mean is off")
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(mean(nil)) {
		t.Error("median and mean of nothing must be NaN, not a number that looks measured")
	}
}

func TestHighestPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		return s
	}
	cases := []struct {
		n    int
		ok   bool
		want float64
	}{
		{99, false, 0}, // p90 would leave 9.9 samples beyond it
		{100, true, 0.90},
		{999, true, 0.90},
		{1000, true, 0.99},
		{9999, true, 0.99},
		{10000, true, 0.999},
		{100000, true, 0.9999},
		{5000000, true, 0.9999}, // the list ends there
	}
	for _, c := range cases {
		p, v, ok := highestPercentile(ramp(c.n))
		if ok != c.ok || !near(p, c.want) {
			t.Errorf("n=%d: got p=%g ok=%v, want p=%g ok=%v", c.n, p, ok, c.want, c.ok)
		}
		if ok && !near(v, c.want*float64(c.n-1)) {
			t.Errorf("n=%d: p%g of a ramp is %g, want %g", c.n, 100*p, v, c.want*float64(c.n-1))
		}
	}
}
