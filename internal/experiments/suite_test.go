package experiments

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"flattree/internal/core"
)

var allTopologies = []topology{fatTree, flatTree, randomGraph, twoStage}

// TestSuiteBuildsOnlyWhatItIsAskedFor: a suite built for a subset of the
// topologies leaves every other network nil, and each network it does build
// has the nodes and links of the full suite's, in every mode the drivers
// build flat-tree in.
func TestSuiteBuildsOnlyWhatItIsAskedFor(t *testing.T) {
	const k, seed = 6, 3
	for _, mode := range []core.Mode{core.ModeClos, core.ModeGlobalRandom, core.ModeLocalRandom} {
		full, err := buildSuite(k, seed, mode, allTopologies)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range allTopologies {
			s, err := buildSuite(k, seed, mode, []topology{want})
			if err != nil {
				t.Fatal(err)
			}
			built := map[topology]bool{
				fatTree:     s.fat != nil,
				flatTree:    s.flat != nil,
				randomGraph: s.rg != nil,
				twoStage:    s.twoStage != nil,
			}
			for tp, ok := range built {
				if ok != (tp == want) {
					t.Errorf("%s, asked for %d: topology %d built = %v", mode, want, tp, ok)
				}
			}
			got, ref := s.net(want), full.net(want)
			if !reflect.DeepEqual(got.Nodes, ref.Nodes) || !reflect.DeepEqual(got.Links, ref.Links) {
				t.Errorf("%s, topology %d: network differs from the full suite's", mode, want)
			}
		}
	}
}

// TestColumnNets pins which networks a column set builds: one figure
// column builds one network, a whole table builds every network of the
// figure, and a topology two columns share is built once.
func TestColumnNets(t *testing.T) {
	numPl := len(fig8Spec.placements)
	for _, tc := range []struct {
		nets []topology
		per  int
		cols []int
		want []topology
	}{
		{fig7Spec.nets, numPl, []int{0}, []topology{fatTree}},
		{fig7Spec.nets, numPl, []int{5, 4, 2}, []topology{randomGraph, flatTree}},
		{fig7Spec.nets, numPl, []int{0, 1, 2, 3, 4, 5}, []topology{fatTree, flatTree, randomGraph}},
		{fig8Spec.nets, numPl, []int{5}, []topology{twoStage}},
		{fig6Nets, 1, []int{3, 0}, []topology{twoStage, flatTree}},
	} {
		if got := columnNets(tc.nets, tc.per, tc.cols); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("columnNets(%v, %d, %v) = %v, want %v", tc.nets, tc.per, tc.cols, got, tc.want)
		}
	}
}

// BenchmarkCellColumn times one cold fig7 column per topology over
// serve-mixed's k = 8..12 sweep at one worker: the compute of a cold
// /v1/cell request without HTTP, store or admission.
func BenchmarkCellColumn(b *testing.B) {
	for _, col := range []string{"fat-tree/loc", "flat-tree/loc", "random-graph/noloc"} {
		b.Run(fmt.Sprintf("col=%s", col), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.KMin, cfg.KMax, cfg.Parallelism = 8, 12, 1
			sp := CellSpec{Experiment: "fig7", Column: col}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Cell(context.Background(), cfg, sp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
