package graph

import (
	"fmt"
	"testing"
)

func regular(b *testing.B, n, d int, seed uint64) *Graph {
	b.Helper()
	degrees := make([]int, n)
	for i := range degrees {
		degrees[i] = d
	}
	g, err := BuildConnected(degrees, NewRNG(seed))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkBFS(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := regular(b, n, 8, 1)
			dist := make([]int32, n)
			queue := make([]int32, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.BFSInto(i%n, dist, queue)
			}
		})
	}
}

// benchSSSP times one SSSP kernel from rotating sources on a random regular
// graph under the two length families that matter: unit lengths (what the
// ledger's probe and hop-count callers present) and FPTAS-late lengths (what
// the solver's oracle presents — a ~1e31 spread, see fptasLateLengths).
func benchSSSP(b *testing.B, n, d int, kernel func(ws *Workspace, src int, length []float64)) {
	g := regular(b, n, d, 1)
	for _, lf := range []struct {
		name   string
		length []float64
	}{
		{"unit", g.UnitLengths()},
		{"fptas-late", fptasLateLengths(NewRNG(1), g.M())},
	} {
		b.Run("lengths="+lf.name, func(b *testing.B) {
			ws := g.NewWorkspace()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel(ws, i%n, lf.length)
			}
		})
	}
}

func BenchmarkDijkstra(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchSSSP(b, n, 8, (*Workspace).Dijkstra) })
	}
}

// BenchmarkDijkstraK32Scale runs the heap kernel at the node count of the
// paper's largest experiments: a flat-tree(32) has 5·32²/4 = 1280 switches
// of degree up to 32. This is the per-call cost the FPTAS pays thousands of
// times per solve.
func BenchmarkDijkstraK32Scale(b *testing.B) { benchSSSP(b, 1280, 16, (*Workspace).Dijkstra) }

func BenchmarkDeltaStep(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchSSSP(b, n, 8, (*Workspace).DeltaStep) })
	}
}

// BenchmarkDeltaStepK32Scale is BenchmarkDijkstraK32Scale on the radix
// kernel — the head-to-head at the paper's largest switch count.
func BenchmarkDeltaStepK32Scale(b *testing.B) { benchSSSP(b, 1280, 16, (*Workspace).DeltaStep) }

func BenchmarkKShortestPaths(b *testing.B) {
	g := regular(b, 256, 8, 1)
	length := g.UnitLengths()
	s := g.NewKSPSolver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if paths := s.KShortestPaths(0, 128, 8, length); len(paths) == 0 {
			b.Fatal("no paths")
		}
	}
}

func BenchmarkRandomDegree(b *testing.B) {
	degrees := make([]int, 512)
	for i := range degrees {
		degrees[i] = 12
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RandomDegree(degrees, NewRNG(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
