package main

import (
	"strings"
	"testing"
)

func TestCellMatches(t *testing.T) {
	cases := []struct {
		ref, got string
		rel, abs float64
		want     bool
	}{
		{"0.0500", "0.0500", 0, 0, true},
		{"0.0500", "0.0549", 0.10, 0, true},   // within 10 % of the reference
		{"0.0500", "0.0551", 0.10, 0, false},  // just outside
		{"0.0500", "0.0449", 0.10, 0, false},  // either direction
		{"4.608", "4.627", 0, 0.02, true},     // APL within 0.02 hops
		{"4.608", "4.629", 0, 0.02, false},    //
		{"-", "-", 0, 0, true},                // an infeasible cell stays infeasible
		{"-", "2.000", 0.10, 0.02, false},     //
		{"0.0500", "0.0500~", 0.10, 0, false}, // approximate never matches
		{"3", "3", 0, 0, true},                // the trials column
		{"3", "2", 0, 0.02, false},
	}
	for _, c := range cases {
		if got := cellMatches(c.ref, c.got, c.rel, c.abs); got != c.want {
			t.Errorf("cellMatches(%q, %q, rel %g, abs %g) = %v, want %v", c.ref, c.got, c.rel, c.abs, got, c.want)
		}
	}
}

const refTable = "# self-heal\nstage\ttrials\tconn\tapl\tlambda\npre-failure\t3\t1.000\t4.608\t0.5618\nfailed\t3\t1.000\t-\t0.4781\n"

func TestCompareCells(t *testing.T) {
	cases := []struct {
		name    string
		got     string
		wantOff int
	}{
		{"identical", refTable, 0},
		{"lambda within ε, apl within 0.02", strings.NewReplacer("0.5618", "0.5900", "4.608", "4.620").Replace(refTable), 0},
		{"lambda off", strings.Replace(refTable, "0.4781", "0.4000", 1), 1},
		{"conn off and trials off", strings.NewReplacer("1.000\t4.608", "0.900\t4.608", "failed\t3", "failed\t2").Replace(refTable), 2},
		{"row key differs", strings.Replace(refTable, "failed", "broken", 1), 4},
		{"row missing", strings.Replace(refTable, "failed\t3\t1.000\t-\t0.4781\n", "", 1), 4},
		{"table missing", "", 1},
	}
	for _, c := range cases {
		off, notes := compareCells([]byte(refTable), []byte(c.got), healTolerance)
		if off != c.wantOff {
			t.Errorf("%s: %d cells off (%v), want %d", c.name, off, notes, c.wantOff)
		}
		if (off == 0) != (len(notes) == 0) {
			t.Errorf("%s: %d off but notes %v", c.name, off, notes)
		}
	}
	// Two tables back to back, as apl-sweep and serve-mixed print them.
	two := refTable + "# second\nk\tfat-tree\n4\t3.500\n"
	if off, notes := compareCells([]byte(two), []byte(strings.Replace(two, "3.500", "3.600", 1)), aplTolerance); off != 1 {
		t.Errorf("second table: %d off (%v), want 1", off, notes)
	}
}
