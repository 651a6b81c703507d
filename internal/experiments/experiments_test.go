package experiments

import (
	"bytes"
	"context"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

func smallCfg() Config {
	return Config{KMin: 4, KMax: 8, KStep: 2, Seed: 1, Epsilon: 0.12}
}

func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestKsSweep(t *testing.T) {
	cfg := Config{KMin: 4, KMax: 12, KStep: 4}
	ks := cfg.Ks()
	if len(ks) != 3 || ks[0] != 4 || ks[1] != 8 || ks[2] != 12 {
		t.Errorf("ks = %v", ks)
	}
	odd := Config{KMin: 3, KMax: 7, KStep: 1}
	for _, k := range odd.Ks() {
		if k%2 != 0 {
			t.Errorf("odd k %d in sweep", k)
		}
	}
}

// TestFig5Shape verifies the paper's Figure 5 claims on a reduced sweep:
// flat-tree at (m,n)=(k/8,2k/8) is notably shorter than fat-tree and within
// 5% of the random graph.
func TestFig5Shape(t *testing.T) {
	tab, err := Fig5(context.Background(), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Column 4 is flat-tree(m=k/8,n=2k/8); row 2 is k=8.
	fat := cell(t, tab, 2, 1)
	rg := cell(t, tab, 2, 2)
	flat := cell(t, tab, 2, 4)
	if flat >= fat {
		t.Errorf("k=8: flat-tree APL %g not below fat-tree %g", flat, fat)
	}
	if flat > rg*1.05 {
		t.Errorf("k=8: flat-tree APL %g more than 5%% above random graph %g", flat, rg)
	}
}

// TestFig6Shape: flat-tree local mode beats fat-tree and random graph on
// intra-pod APL, and random graph is worst (servers scatter).
func TestFig6Shape(t *testing.T) {
	tab, err := Fig6(context.Background(), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tab.Rows {
		if i == 0 {
			continue // k=4 is degenerate (pods of 4 servers)
		}
		flat := cell(t, tab, i, 1)
		fat := cell(t, tab, i, 2)
		rg := cell(t, tab, i, 3)
		if flat > fat {
			t.Errorf("k=%s: flat %g > fat %g", row[0], flat, fat)
		}
		if rg <= fat {
			t.Errorf("k=%s: random graph %g should be worst (fat %g)", row[0], rg, fat)
		}
	}
}

// TestFig7Shape: flat-tree throughput ≈ random graph, both clearly above
// fat-tree, and throughput grows with k.
func TestFig7Shape(t *testing.T) {
	tab, err := Fig7(context.Background(), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	last := len(tab.Rows) - 1
	fat := cell(t, tab, last, 1)
	flat := cell(t, tab, last, 3)
	rg := cell(t, tab, last, 5)
	if flat < 1.2*fat {
		t.Errorf("flat-tree %g not clearly above fat-tree %g", flat, fat)
	}
	if flat < 0.75*rg || flat > 1.35*rg {
		t.Errorf("flat-tree %g not close to random graph %g", flat, rg)
	}
	if cell(t, tab, last, 1) <= cell(t, tab, 0, 1) {
		t.Error("fat-tree throughput should grow with k")
	}
}

// TestFig8Shape: all-to-all throughput in the paper's band, fat-tree the
// weakest topology.
func TestFig8Shape(t *testing.T) {
	cfg := smallCfg()
	cfg.KMin, cfg.KMax = 6, 8
	tab, err := Fig8(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		fat := cell(t, tab, i, 1)
		flat := cell(t, tab, i, 3)
		if flat <= fat {
			t.Errorf("row %d: flat-tree %g should beat fat-tree %g", i, flat, fat)
		}
	}
}

// pastDeadline is a context whose deadline has passed while its Err is
// still nil: every FPTAS solve under it runs its probe and then takes the
// deadline's degrade path, with no race against a timer.
type pastDeadline struct{ context.Context }

func (pastDeadline) Deadline() (time.Time, bool) { return time.Now().Add(-time.Second), true }

// TestHybridMarksDeadlineStop: a hybrid cell built from a solve that stopped
// at the deadline carries the "~", so serve never persists it. The local
// zone's all-to-all and the joint solve run the FPTAS and stop; the global
// zone's broadcast is a single hot spot, solved exactly, and stays unmarked.
// A stopped solve still reports its probe's feasible λ, so no ratio cell
// divides by a zero reference.
func TestHybridMarksDeadlineStop(t *testing.T) {
	tab, _, err := Hybrid(pastDeadline{context.Background()}, smallCfg(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Approximate() {
		t.Fatalf("deadline-stopped hybrid table carries no ~:\n%s", tab)
	}
	for i, row := range tab.Rows {
		for c, want := range map[int]bool{2: false, 3: false, 4: true, 5: true, 6: true} {
			if strings.HasSuffix(row[c], "~") != want {
				t.Errorf("row %d %s = %q: want marked=%t", i, tab.Header[c], row[c], want)
			}
			if v, err := strconv.ParseFloat(strings.TrimSuffix(row[c], "~"), 64); err != nil || !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("row %d %s = %q: want a positive, finite value", i, tab.Header[c], row[c])
			}
		}
	}
}

// TestHybridNoInterference reproduces §3.4's claim on a small network: each
// zone's throughput matches the corresponding complete network within
// tolerance, and the joint interference factor stays near 1.
func TestHybridNoInterference(t *testing.T) {
	cfg := smallCfg()
	tab, rows, err := Hybrid(context.Background(), cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(tab.Rows) != len(rows) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.LambdaGlobal < 0.7*r.RefGlobal {
			t.Errorf("%d/%d pods: global zone %g far below reference %g",
				r.GlobalPods, r.LocalPods, r.LambdaGlobal, r.RefGlobal)
		}
		if r.LambdaLocal < 0.7*r.RefLocal {
			t.Errorf("%d/%d pods: local zone %g far below reference %g",
				r.GlobalPods, r.LocalPods, r.LambdaLocal, r.RefLocal)
		}
		if r.Interference < 0.8 {
			t.Errorf("%d/%d pods: interference factor %g, want ~1",
				r.GlobalPods, r.LocalPods, r.Interference)
		}
	}
}

// TestProfileFindsPaperOptimum: the §2.4 profiling procedure should land on
// (or tie with) the paper's (k/8, 2k/8) for a representative k.
func TestProfileFindsPaperOptimum(t *testing.T) {
	tab, res, err := Profile(context.Background(), smallCfg(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no profile rows")
	}
	if res.DefaultAPL == 0 {
		t.Fatal("default setting not profiled")
	}
	// The paper's default need not be the unique argmin, but it must be
	// within 2% of the best found.
	if res.DefaultAPL > res.BestAPL*1.02 {
		t.Errorf("default (m=%d,n=%d) APL %g; best (m=%d,n=%d) %g",
			16/8, 2*16/8, res.DefaultAPL, res.BestM, res.BestN, res.BestAPL)
	}
}

// TestPropsPattern1Uniform: Property 1 and 2 spreads are zero for pattern 1
// whenever the layout permits exact uniformity: d = k/2 even (odd d leaves
// the middle blade column's side connectors unused, §2.2, so its servers
// cannot relocate) and gcd(m, g) dividing n (the blade-A blocks then tile
// the core groups exactly). k = 8 and 16 satisfy both at the default
// (m, n); k = 10..14 each violate one and are covered by the exact-wiring
// check in the core package instead.
func TestPropsPattern1Uniform(t *testing.T) {
	cfg := smallCfg()
	cfg.KMin, cfg.KMax = 8, 16
	_, reports, err := Props(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	uniformK := map[int]bool{8: true, 16: true}
	for _, r := range reports {
		if r.Pattern.String() != "pattern1" || !uniformK[r.K] {
			continue
		}
		if r.ServerSpread != 0 || r.EdgeSpread != 0 || r.AggSpread != 0 {
			t.Errorf("k=%d pattern1: spreads %d/%d/%d, want 0",
				r.K, r.ServerSpread, r.EdgeSpread, r.AggSpread)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "t", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	var buf bytes.Buffer
	if err := tab.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "a\tbb") || !strings.Contains(buf.String(), "1\t2") {
		t.Errorf("tsv = %q", buf.String())
	}
	s := tab.String()
	if !strings.Contains(s, "# t") || !strings.Contains(s, "bb") {
		t.Errorf("string = %q", s)
	}
}
