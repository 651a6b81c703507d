package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// cellTSV renders one cell through the Cell entry point.
func cellTSV(t *testing.T, cfg Config, sp CellSpec) []byte {
	t.Helper()
	tab, err := Cell(context.Background(), cfg, sp)
	if err != nil {
		t.Fatalf("Cell(%+v): %v", sp, err)
	}
	var buf bytes.Buffer
	if err := tab.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// smallCell is a cheap instance of any registered experiment: a k=4..6
// sweep for the figures, k=6 for the single-k scenarios, coarse epsilon, a
// short soak. Registry-driven tests run every CellExperiments() entry on it,
// so a newly registered experiment is covered without editing a test.
func smallCell(exp string, seed uint64, workers int) (Config, CellSpec) {
	cfg := Config{KMin: 4, KMax: 6, KStep: 2, Seed: seed, Epsilon: 0.3, Trials: 2, HybridK: 6, Parallelism: workers}
	sp := CellSpec{Experiment: exp, ProfileK: 8, Batch: 2, Load: 0.05}
	sp.Soak.Rate, sp.Soak.Horizon = 2, 4
	return cfg, sp
}

// TestCellMatchesFullTable pins the cache-soundness contract the serve
// layer depends on, for every registered experiment: a single extracted
// cell prints byte-for-byte the bytes the same column carries inside a full
// table run. Figure columns recompute only their own work items; scenario
// experiments rerun the whole driver and project (first and last column
// only — each is a full rerun) — both must land on identical bytes.
func TestCellMatchesFullTable(t *testing.T) {
	for _, exp := range CellExperiments() {
		cfg, sp := smallCell(exp, 1, 4)
		full, err := Cell(context.Background(), cfg, sp)
		if err != nil {
			t.Fatalf("%s full table: %v", exp, err)
		}
		cis := make([]int, len(full.Header)-1)
		for i := range cis {
			cis[i] = i
		}
		if static, _ := Columns(exp); static == nil {
			cis = []int{0, len(cis) - 1}
		}
		for _, ci := range cis {
			sp.Column = full.Header[1+ci]
			want, err := ProjectColumn(full, sp.Column)
			if err != nil {
				t.Fatal(err)
			}
			var wantBuf bytes.Buffer
			if err := want.WriteTSV(&wantBuf); err != nil {
				t.Fatal(err)
			}
			got := cellTSV(t, cfg, sp)
			if !bytes.Equal(got, wantBuf.Bytes()) {
				t.Errorf("%s column %q: extracted cell differs from full table\n--- full\n%s--- cell\n%s",
					exp, sp.Column, wantBuf.Bytes(), got)
			}
		}
	}
}

// TestCellDeterministicAcrossWorkerCounts extends the determinism contract
// to the cell entry points: a figure column computed alone is
// byte-identical at any Parallelism.
func TestCellDeterministicAcrossWorkerCounts(t *testing.T) {
	specs := []CellSpec{
		{Experiment: "fig7", Column: "flat-tree/loc"},
		{Experiment: "fig8", Column: "two-stage-rg/weak"},
		{Experiment: "fig5", Column: "random-graph"},
	}
	for _, sp := range specs {
		var want []byte
		for _, workers := range []int{1, 4} {
			cfg := Config{KMin: 4, KMax: 6, KStep: 2, Seed: 2, Epsilon: 0.3, Trials: 2, Parallelism: workers}
			got := cellTSV(t, cfg, sp)
			if workers == 1 {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: workers=%d differs from workers=1\n--- w1\n%s--- w%d\n%s",
					sp.Experiment, sp.Column, workers, want, workers, got)
			}
		}
	}
}

// TestColumnsMatchHeaders pins Columns against the tables the drivers
// actually print, for every registered experiment, so the serve layer's
// column listing can never drift.
func TestColumnsMatchHeaders(t *testing.T) {
	static := 0
	for _, exp := range CellExperiments() {
		cols, err := Columns(exp)
		if err != nil {
			t.Fatalf("Columns(%s): %v", exp, err)
		}
		if cols == nil {
			continue // whole-table experiment: nothing to drift
		}
		static++
		cfg, sp := smallCell(exp, 1, 4)
		cfg.KMax = 4
		tab, err := Cell(context.Background(), cfg, sp)
		if err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if got := strings.Join(tab.Header[1:], ","); got != strings.Join(cols, ",") {
			t.Errorf("%s: Columns()=%v but table header data columns are %v", exp, cols, tab.Header[1:])
		}
	}
	if static == 0 {
		t.Error("no registered experiment has static columns")
	}
	if _, err := Columns("nope"); err == nil {
		t.Error("Columns(nope): expected error")
	}
}

// TestProjectColumn covers the projection path scenario cells go through.
func TestProjectColumn(t *testing.T) {
	tab := &Table{Title: "t", Header: []string{"k", "a", "b"}}
	tab.AddRow("4", "1.0", "2.0")
	tab.AddRow("6", "3.0", "4.0~")
	p, err := ProjectColumn(tab, "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Header) != 2 || p.Header[1] != "b" || p.Rows[1][1] != "4.0~" {
		t.Errorf("bad projection: %+v", p)
	}
	if !p.Approximate() {
		t.Error("projected table should report Approximate")
	}
	if tabA, _ := ProjectColumn(tab, "a"); tabA.Approximate() {
		t.Error("column a has no ~ cells")
	}
	if _, err := ProjectColumn(tab, "zzz"); err == nil {
		t.Error("expected error for unknown column")
	}
}
