package graph

import (
	"math"
	"testing"
)

// randomMultigraph builds a connected multigraph on 12..23 nodes with
// deliberate parallel edges and random lengths in [0.1, 1.1).
func randomMultigraph(rng *RNG) (*Graph, []float64) {
	return randomMultigraphN(rng, 12+rng.Intn(12))
}

// randomMultigraphN is randomMultigraph at a given node count.
func randomMultigraphN(rng *RNG, n int) (*Graph, []float64) {
	g := New(n)
	// Connected base: every node links to an earlier one.
	for i := 1; i < n; i++ {
		g.AddEdge(i, rng.Intn(i))
	}
	for j := 0; j < n; j++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddEdge(a, b)
		}
	}
	// Duplicate a few existing edges so parallel edges are always present.
	for j := 0; j < 4; j++ {
		e := g.Edge(rng.Intn(g.M()))
		g.AddEdge(int(e.A), int(e.B))
	}
	g.SortAdjacency()
	length := make([]float64, g.M())
	for i := range length {
		length[i] = 0.1 + rng.Float64()
	}
	return g, length
}

// bellmanFord is the reference shortest-distance oracle for the
// differential test: O(N·M), no heap, trivially correct, honoring the same
// banned-edge/banned-node semantics as the workspace kernel.
func bellmanFord(g *Graph, src int, length []float64, bannedEdge, bannedNode []bool) []float64 {
	dist := make([]float64, g.N())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if bannedNode != nil && bannedNode[src] {
		return dist
	}
	dist[src] = 0
	for iter := 0; iter < g.N(); iter++ {
		changed := false
		for e, ed := range g.Edges() {
			if bannedEdge != nil && bannedEdge[e] {
				continue
			}
			if bannedNode != nil && (bannedNode[ed.A] || bannedNode[ed.B]) {
				continue
			}
			if d := dist[ed.A] + length[e]; d < dist[ed.B] {
				dist[ed.B] = d
				changed = true
			}
			if d := dist[ed.B] + length[e]; d < dist[ed.A] {
				dist[ed.A] = d
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// TestWorkspaceDijkstraMatchesBellmanFord pins the heap kernel against the
// reference oracle on random multigraphs, with and without banned edges and
// nodes, reusing one workspace across every run to catch stale-state bugs.
func TestWorkspaceDijkstraMatchesBellmanFord(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		rng := NewRNG(seed)
		g, length := randomMultigraph(rng)
		n := g.N()
		ws := g.NewWorkspace()

		var bannedEdge, bannedNode []bool
		if seed%2 == 1 {
			bannedEdge = make([]bool, g.M())
			for e := range bannedEdge {
				bannedEdge[e] = rng.Intn(6) == 0
			}
			bannedNode = make([]bool, n)
			for v := 1; v < n; v++ {
				bannedNode[v] = rng.Intn(8) == 0
			}
		}

		for _, src := range []int{0, rng.Intn(n)} {
			ws.DijkstraBanned(src, length, bannedEdge, bannedNode)
			want := bellmanFord(g, src, length, bannedEdge, bannedNode)
			for v := 0; v < n; v++ {
				got := ws.Dist[v]
				if math.IsInf(got, 1) != math.IsInf(want[v], 1) {
					t.Fatalf("seed %d src %d: reachability of %d differs: dijkstra %v, bellman-ford %v",
						seed, src, v, got, want[v])
				}
				if !math.IsInf(got, 1) && math.Abs(got-want[v]) > 1e-9 {
					t.Fatalf("seed %d src %d: dist[%d] = %g, bellman-ford %g",
						seed, src, v, got, want[v])
				}
			}
			// The predecessor tree must be consistent with the distances
			// and must not use banned edges or traverse banned nodes.
			for v := 0; v < n; v++ {
				e := ws.Prev[v]
				if e < 0 {
					continue
				}
				u := g.Edge(int(e)).Other(int32(v))
				if bannedEdge != nil && bannedEdge[e] {
					t.Fatalf("seed %d: prev[%d] uses banned edge %d", seed, v, e)
				}
				if bannedNode != nil && (bannedNode[u] || bannedNode[v]) {
					t.Fatalf("seed %d: prev[%d] traverses a banned node", seed, v)
				}
				if math.Abs(ws.Dist[u]+length[e]-ws.Dist[v]) > 1e-9 {
					t.Fatalf("seed %d: prev tree inconsistent at %d: %g + %g != %g",
						seed, v, ws.Dist[u], length[e], ws.Dist[v])
				}
			}
		}
	}
}

// TestWorkspaceDeterministicTree checks that the shortest-path tree is a
// function of the graph alone: a reused workspace mid-stream and a fresh
// one must produce identical Prev vectors, even on unit lengths where
// almost every pop is a tie.
func TestWorkspaceDeterministicTree(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		rng := NewRNG(seed)
		g, _ := randomMultigraph(rng)
		unit := g.UnitLengths()
		ws := g.NewWorkspace()
		ws.Dijkstra(int(rng.Intn(g.N())), unit) // dirty the scratch
		ws.Dijkstra(0, unit)
		fresh := g.NewWorkspace()
		fresh.Dijkstra(0, unit)
		for v := range fresh.Prev {
			if ws.Prev[v] != fresh.Prev[v] || ws.Dist[v] != fresh.Dist[v] { //flatlint:ignore floatcmp determinism test demands bit-identical distances
				t.Fatalf("seed %d: reused workspace diverged at node %d: prev %d vs %d, dist %g vs %g",
					seed, v, ws.Prev[v], fresh.Prev[v], ws.Dist[v], fresh.Dist[v])
			}
		}
	}
}

// TestWorkspaceDijkstraTargetsMatchesFullRun pins the early-stopped batched
// oracle against the full kernel: for random target sets, the targets'
// distances, their shortest-path trees (walked through Prev), and the heap
// invariant after the early exit must all be bit-identical to a full run.
func TestWorkspaceDijkstraTargetsMatchesFullRun(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		rng := NewRNG(seed)
		g, length := randomMultigraph(rng)
		n := g.N()
		full := g.NewWorkspace()
		ws := g.NewWorkspace()
		src := rng.Intn(n)
		full.Dijkstra(src, length)

		// Random target set, sometimes with duplicates, sometimes every node.
		var targets []int32
		switch seed % 3 {
		case 0:
			for i := 0; i < 1+rng.Intn(4); i++ {
				targets = append(targets, int32(rng.Intn(n)))
			}
			targets = append(targets, targets[0]) // duplicate must count once
		case 1:
			targets = []int32{int32(rng.Intn(n))}
		default:
			for v := 0; v < n; v++ {
				targets = append(targets, int32(v))
			}
		}
		ws.DijkstraTargets(src, length, targets)

		for _, dst := range targets {
			if ws.Dist[dst] != full.Dist[dst] { //flatlint:ignore floatcmp the early-stopped run must be bit-identical on settled targets
				t.Fatalf("seed %d: dist[%d] = %g, full run %g", seed, dst, ws.Dist[dst], full.Dist[dst])
			}
			// Walk the tree back to src: every hop must match the full run.
			for v := dst; int(v) != src && ws.Prev[v] >= 0; {
				if ws.Prev[v] != full.Prev[v] {
					t.Fatalf("seed %d: prev[%d] = %d, full run %d", seed, v, ws.Prev[v], full.Prev[v])
				}
				v = g.Edge(int(ws.Prev[v])).Other(v)
			}
		}
		// The workspace must be reusable after the early exit: heap empty,
		// pos reset, and a fresh full Dijkstra must match a clean one.
		ws.Dijkstra(src, length)
		for v := 0; v < n; v++ {
			if ws.Dist[v] != full.Dist[v] || ws.Prev[v] != full.Prev[v] { //flatlint:ignore floatcmp reuse after early exit must be bit-identical
				t.Fatalf("seed %d: workspace dirty after DijkstraTargets: node %d dist %g/%g prev %d/%d",
					seed, v, ws.Dist[v], full.Dist[v], ws.Prev[v], full.Prev[v])
			}
		}
	}
}

// TestWorkspaceDijkstraTargetsUnreachable checks that a target in another
// component is reported at +Inf rather than hanging or mis-stopping.
func TestWorkspaceDijkstraTargetsUnreachable(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4) // separate component
	g.SortAdjacency()
	length := []float64{1, 1, 1}
	ws := g.NewWorkspace()
	ws.DijkstraTargets(0, length, []int32{2, 3})
	if ws.Dist[2] != 2 { //flatlint:ignore floatcmp unit lengths sum exactly
		t.Errorf("dist[2] = %g, want 2", ws.Dist[2])
	}
	if !math.IsInf(ws.Dist[3], 1) {
		t.Errorf("dist[3] = %g, want +Inf (unreachable)", ws.Dist[3])
	}
}

// TestWorkspaceShortestPathMatchesGraphAPI pins the convenience wrappers to
// the workspace kernel.
func TestWorkspaceShortestPathMatchesGraphAPI(t *testing.T) {
	rng := NewRNG(7)
	g, length := randomMultigraph(rng)
	ws := g.NewWorkspace()
	for dst := 1; dst < g.N(); dst++ {
		p1, ok1 := g.ShortestPath(0, dst, length)
		p2, ok2 := ws.ShortestPath(0, dst, length)
		if ok1 != ok2 || !sameNodes(p1.Nodes, p2.Nodes) || p1.Cost != p2.Cost { //flatlint:ignore floatcmp both paths come from the same deterministic kernel
			t.Fatalf("dst %d: wrapper %v/%v, workspace %v/%v", dst, p1, ok1, p2, ok2)
		}
	}
}
