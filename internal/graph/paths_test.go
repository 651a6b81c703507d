package graph

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDijkstraMatchesBFSOnUnitLengths(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		n := 24
		degrees := make([]int, n)
		for i := range degrees {
			degrees[i] = 4
		}
		g, err := BuildConnected(degrees, NewRNG(seed))
		if err != nil {
			return false
		}
		bfs := g.BFS(0)
		ws := g.NewWorkspace()
		ws.Dijkstra(0, g.UnitLengths())
		for v := 0; v < n; v++ {
			if int32(ws.Dist[v]) != bfs[v] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func TestShortestPathWeighted(t *testing.T) {
	// 0-1-3 costs 1+1=2; 0-2-3 costs 5+1=6; direct 0-3 costs 10.
	g := New(4)
	e01 := g.AddEdge(0, 1)
	e13 := g.AddEdge(1, 3)
	e02 := g.AddEdge(0, 2)
	e23 := g.AddEdge(2, 3)
	e03 := g.AddEdge(0, 3)
	length := make([]float64, g.M())
	length[e01], length[e13] = 1, 1
	length[e02], length[e23] = 5, 1
	length[e03] = 10
	p, ok := g.NewWorkspace().ShortestPath(0, 3, length)
	if !ok {
		t.Fatal("no path")
	}
	if p.Cost != 2 || len(p.Nodes) != 3 || p.Nodes[1] != 1 {
		t.Errorf("path = %+v", p)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	if _, ok := g.NewWorkspace().ShortestPath(0, 2, g.UnitLengths()); ok {
		t.Error("found path to isolated node")
	}
}

func TestKShortestPathsSimple(t *testing.T) {
	// Diamond: 0-1-3, 0-2-3, plus a long way 0-1-2-3.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 3)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	g.AddEdge(1, 2)
	paths := g.NewKSPSolver().KShortestPaths(0, 3, 4, g.UnitLengths())
	if len(paths) != 4 {
		t.Fatalf("got %d paths, want 4", len(paths))
	}
	if paths[0].Cost != 2 || paths[1].Cost != 2 {
		t.Errorf("two shortest should cost 2: %v %v", paths[0], paths[1])
	}
	if paths[2].Cost != 3 || paths[3].Cost != 3 {
		t.Errorf("next two should cost 3: %v %v", paths[2], paths[3])
	}
	for _, p := range paths {
		if p.Nodes[0] != 0 || p.Nodes[len(p.Nodes)-1] != 3 {
			t.Errorf("path endpoints wrong: %v", p.Nodes)
		}
		seen := map[int32]bool{}
		for _, v := range p.Nodes {
			if seen[v] {
				t.Errorf("path has a loop: %v", p.Nodes)
			}
			seen[v] = true
		}
	}
}

// TestKShortestPathsProperties: costs non-decreasing, loopless, unique.
func TestKShortestPathsProperties(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		n := 16
		degrees := make([]int, n)
		for i := range degrees {
			degrees[i] = 4
		}
		g, err := BuildConnected(degrees, NewRNG(seed))
		if err != nil {
			return false
		}
		paths := g.NewKSPSolver().KShortestPaths(0, n-1, 6, g.UnitLengths())
		if len(paths) == 0 {
			return false
		}
		seen := make(map[string]bool)
		last := math.Inf(-1)
		for _, p := range paths {
			if p.Cost < last-1e-12 {
				return false
			}
			last = p.Cost
			key := ""
			visited := make(map[int32]bool)
			for _, v := range p.Nodes {
				if visited[v] {
					return false // loop
				}
				visited[v] = true
				key += string(rune(v)) + ","
			}
			if seen[key] {
				return false // duplicate
			}
			seen[key] = true
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

func TestKShortestPathsParallelEdges(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	paths := g.NewKSPSolver().KShortestPaths(0, 1, 3, g.UnitLengths())
	// Loopless node sequences are identical for parallel edges, so only
	// one distinct path exists.
	if len(paths) != 1 {
		t.Errorf("got %d paths, want 1", len(paths))
	}
}
