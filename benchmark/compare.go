package main

import (
	"fmt"
	"io"
	"math"
)

// exactCounts are the per-layer counts that must repeat exactly between two
// runs of the same code: a later issue may rest a claim on them.
var exactCounts = []string{"mcf.solves", "mcf.phases", "mcf.dijkstras", "traffic.commodities", "metrics.bfs_sources"}

func findResult(s *suiteResult, workload string, traced bool) *result {
	for _, r := range s.Results {
		if r.Workload == workload && r.Traced == traced {
			return r
		}
	}
	return nil
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction: positive means worse.
func worseBy(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// printComparison prints, per (end-to-end metric, workload) present in both
// files, both medians, how much worse the second is, each run's
// inter-quartile spread and the bound, and checks the exact counts of the
// traced passes. It reports whether every difference is within its bound.
func printComparison(w io.Writer, a, b *suiteResult) bool {
	ok := true
	fmt.Fprintf(w, "\n== comparison: A = %s%s, B = %s%s\n", a.Provenance.GitCommit, dirtyMark(a), b.Provenance.GitCommit, dirtyMark(b))
	fmt.Fprintf(w, "  %-16s %-15s %13s %13s %8s %8s %8s %6s\n", "workload", "metric", "A", "B", "B worse", "IQR A", "IQR B", "bound")
	for _, wl := range workloads {
		ra, rb := findResult(a, wl.Name, false), findResult(b, wl.Name, false)
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			if !d.definedOn(wl.Name) {
				continue
			}
			sa, sb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			diff := worseBy(d, sa.Value, sb.Value)
			verdict := ""
			if diff > d.Bound {
				verdict, ok = "  EXCEEDS BOUND", false
			}
			fmt.Fprintf(w, "  %-16s %-15s %13.6g %13.6g %+7.1f%% %8s %8s %5.0f%%%s\n", wl.Name, d.Name,
				sa.Value, sb.Value, 100*diff, iqrShare(sa), iqrShare(sb), 100*d.Bound, verdict)
		}
	}
	for _, wl := range workloads {
		ra, rb := findResult(a, wl.Name, true), findResult(b, wl.Name, true)
		if ra == nil || rb == nil {
			continue
		}
		for _, name := range exactCounts {
			va, vb := ra.Metrics[name].Value, rb.Metrics[name].Value
			verdict := "identical"
			if math.Abs(va-vb) >= 0.5 { // counts are whole numbers
				verdict, ok = "DIFFERS", false
			}
			fmt.Fprintf(w, "  %-16s %-20s %12.0f %12.0f  %s\n", wl.Name, name, va, vb, verdict)
		}
	}
	return ok
}

func dirtyMark(s *suiteResult) string {
	if s.Provenance.GitDirty {
		return "+dirty"
	}
	return ""
}

// iqrShare is a run's inter-quartile spread as a share of its median; "-"
// for a one-shot measurement.
func iqrShare(s summary) string {
	if s.N < 2 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*(s.Q3-s.Q1)/s.Median)
}
