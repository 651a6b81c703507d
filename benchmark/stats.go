package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is the five-number summary of one metric's samples. Value is the
// number reported under the metric's name: the median of the samples.
type summary struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
	// AliasOf is set when the metric is not defined on this workload and
	// the value is the named metric converted to this one's unit.
	AliasOf string `json:"alias_of,omitempty"`
}

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileSorted interpolates linearly between order statistics, placing
// the i-th of n samples at i/(n-1) (the "inclusive" method).
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantileSorted(sorted(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// summarize reports the median as Value.
func summarize(xs []float64, unit string) summary {
	s := sorted(xs)
	med := quantileSorted(s, 0.5)
	return summary{
		Value: med, Unit: unit, N: len(s),
		Min: quantileSorted(s, 0), Q1: quantileSorted(s, 0.25), Median: med,
		Q3: quantileSorted(s, 0.75), Max: quantileSorted(s, 1),
	}
}

// single is a one-sample summary (a count, a total, a one-shot timing).
func single(v float64, unit string) summary { return summarize([]float64{v}, unit) }

// tailNote describes a latency sample the way the choosing-metrics guide
// asks: the median, the highest percentile the sample supports, the count.
func tailNote(what string, xs []float64, unit string) string {
	s := sorted(xs)
	note := fmt.Sprintf("%s: p50 %.4g %s", what, quantileSorted(s, 0.5), unit)
	if p, v, ok := highestPercentile(s); ok {
		note += fmt.Sprintf(", p%g %.4g %s (the highest percentile with at least ten samples beyond it)", 100*p, v, unit)
	}
	return fmt.Sprintf("%s, n=%d", note, len(s))
}

// tailPercentiles are the candidates for highestPercentile, ascending, as
// the share of samples beyond each (one in beyond).
var tailPercentiles = []struct {
	p      float64
	beyond int
}{{0.90, 10}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}}

// highestPercentile returns the highest of tailPercentiles that still has
// at least ten samples beyond it, and its value; ok is false when even p90
// has fewer (n < 100).
func highestPercentile(s []float64) (p, v float64, ok bool) {
	for _, c := range tailPercentiles {
		if len(s) < 10*c.beyond {
			break
		}
		p, v, ok = c.p, quantileSorted(s, c.p), true
	}
	return p, v, ok
}
