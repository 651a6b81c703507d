package experiments

import (
	"context"
	"strconv"
	"testing"

	"flattree/internal/chaos"
)

func TestFaultsDriver(t *testing.T) {
	cfg := smallCfg()
	cfg.Trials = 2
	tab, err := Faults(context.Background(), cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Zero-failure row: all topologies fully connected with no disconnected
	// trials, APLs match the known figure-5/6 ballpark.
	base := tab.Rows[0]
	for _, col := range []int{1, 4, 7} {
		if base[col] != "1.000" {
			t.Errorf("zero-failure connectivity = %q", base[col])
		}
	}
	for _, col := range []int{3, 6, 9} {
		if base[col] != "0" {
			t.Errorf("zero-failure disconnected-trial count = %q", base[col])
		}
	}
	// APL must be monotone non-decreasing in the failure fraction for
	// every topology (connectivity held at these fractions).
	for _, col := range []int{2, 5, 8} {
		prev := 0.0
		for i, row := range tab.Rows {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				t.Fatalf("row %d col %d = %q", i, col, row[col])
			}
			if v < prev-1e-9 {
				t.Errorf("col %d: APL decreased under more failures: %g -> %g", col, prev, v)
			}
			prev = v
		}
	}
}

func TestSoakDriver(t *testing.T) {
	cfg := smallCfg()
	cfg.Epsilon = 0.3
	tab, err := Soak(context.Background(), cfg, 4, chaos.Options{
		Rate: 2, Horizon: 5, WindowCost: 0.25, SLOThreshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][0] != "flat-tree/self-heal" || tab.Rows[1][0] != "fat-tree/control" {
		t.Fatalf("arm order: %q, %q", tab.Rows[0][0], tab.Rows[1][0])
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Errorf("row %d has %d cells, header %d", i, len(row), len(tab.Header))
		}
	}
	// The same seeded event stream hits both arms: same episode count.
	if tab.Rows[0][1] != tab.Rows[1][1] {
		t.Errorf("episode counts differ across arms: %s vs %s", tab.Rows[0][1], tab.Rows[1][1])
	}
	// Only the self-healing arm repairs: it executes windows, the control
	// arm leaves every episode unrepaired (mean latency "-").
	if w, _ := strconv.Atoi(tab.Rows[0][2]); w == 0 {
		t.Error("self-healing arm executed no windows")
	}
	if tab.Rows[1][2] != "0" || tab.Rows[1][9] != "-" {
		t.Errorf("control arm healed: windows=%s latency=%s", tab.Rows[1][2], tab.Rows[1][9])
	}
	if tab.Rows[1][10] != tab.Rows[1][1] {
		t.Errorf("control arm repaired episodes: unrepaired=%s of %s", tab.Rows[1][10], tab.Rows[1][1])
	}
	// A cancelled soak still returns the (empty or partial) table.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tab, err = Soak(ctx, cfg, 4, chaos.Options{
		Rate: 2, Horizon: 5, WindowCost: 0.25, SLOThreshold: 0.9})
	if err == nil {
		t.Fatal("cancelled soak reported success")
	}
	if tab == nil {
		t.Fatal("cancelled soak returned no table")
	}
}

func TestLatencyDriver(t *testing.T) {
	tab, err := Latency(context.Background(), smallCfg(), 6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d: %v", len(tab.Rows), tab.Rows)
	}
	get := func(row, col int) float64 {
		v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
		if err != nil {
			t.Fatalf("cell (%d,%d) = %q", row, col, tab.Rows[row][col])
		}
		return v
	}
	// Row 0 fat-tree, row 3 flat-tree/global-random: the random-graph
	// mode must see fewer hops and lower latency at light load.
	if get(3, 5) >= get(0, 5) {
		t.Errorf("global-random hops %g not below fat-tree %g", get(3, 5), get(0, 5))
	}
	if get(3, 3) >= get(0, 3) {
		t.Errorf("global-random latency %g not below fat-tree %g", get(3, 3), get(0, 3))
	}
	// Flat-tree in Clos mode behaves like fat-tree.
	if got, want := get(2, 5), get(0, 5); got != want {
		t.Errorf("flat-tree/clos hops %g != fat-tree %g", got, want)
	}
	// No drops at light load.
	for i := range tab.Rows {
		if tab.Rows[i][2] != "0" {
			t.Errorf("row %d dropped %s packets at light load", i, tab.Rows[i][2])
		}
	}
}
