package mcf

import (
	"context"
	"fmt"
	"testing"

	"flattree/internal/fattree"
	"flattree/internal/graph"
)

// BenchmarkFleischer measures the FPTAS on a fat-tree instance with two hot
// spots in different pods, 32 random destinations each (one hot spot alone
// would be a star and take the exact path — see BenchmarkStar).
func BenchmarkFleischer(b *testing.B) {
	for _, k := range []int{8, 12} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			ft, err := fattree.New(k)
			if err != nil {
				b.Fatal(err)
			}
			rng := graph.NewRNG(1)
			var comms []Commodity
			hots := []int{0, len(ft.ServerIDs) - 1}
			for i := 0; i < 64; i++ {
				hot := hots[i%2]
				dst := rng.Intn(len(ft.ServerIDs))
				for dst == hot {
					dst = rng.Intn(len(ft.ServerIDs))
				}
				comms = append(comms, Commodity{Src: ft.ServerIDs[hot], Dst: ft.ServerIDs[dst], Demand: 1})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := MaxConcurrentFlow(context.Background(), ft.Net, comms, Options{Epsilon: 0.1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolverAllToAllChain solves the k=4→6→8 all-to-all column of
// TestRatchetBoundsPhases on one solve state — a fig8 column in miniature — and
// reports the work counts beside the time: phases/op tracks how far the
// demand normalizer sat below OPT, dijkstras/op is the oracle traffic that
// follows from it.
func BenchmarkSolverAllToAllChain(b *testing.B) {
	var phases, dijkstras int
	for i := 0; i < b.N; i++ {
		for _, cs := range solveAllToAllChain(b, 0.1) {
			phases += cs.res.Phases
			dijkstras += cs.res.Dijkstras
		}
	}
	b.ReportMetric(float64(phases)/float64(b.N), "phases/op")
	b.ReportMetric(float64(dijkstras)/float64(b.N), "dijkstras/op")
}
