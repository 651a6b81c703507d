package graph

import (
	"testing"
)

// sweepMatrix runs the kernel over sources in batches of HopBatch and
// rebuilds the distance matrix from its reports: dist[i][v] is the level at
// which sources[i] was reported at node v, -1 if never. A pair reported
// twice fails the test.
func sweepMatrix(t *testing.T, h *HopGraph, n int, sources []int) [][]int32 {
	t.Helper()
	dist := make([][]int32, len(sources))
	for i := range dist {
		dist[i] = make([]int32, n)
		for v := range dist[i] {
			dist[i][v] = -1
		}
	}
	for base := 0; base < len(sources); base += HopBatch {
		batch := sources[base:min(base+HopBatch, len(sources))]
		last := 0
		err := h.Sweep(batch, func(level, node int, fresh uint64) {
			if level < last {
				t.Fatalf("level %d reported after level %d", level, last)
			}
			last = level
			if fresh == 0 || fresh>>uint(len(batch)) != 0 {
				t.Fatalf("mask %#x at node %d for a batch of %d", fresh, node, len(batch))
			}
			for j := range batch {
				if fresh&(1<<uint(j)) == 0 {
					continue
				}
				if dist[base+j][node] >= 0 {
					t.Fatalf("source %d reported twice at node %d", batch[j], node)
				}
				dist[base+j][node] = int32(level)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return dist
}

// inducedHopGraph builds g's HopGraph on the nodes keep accepts from g's
// edge list.
func inducedHopGraph(g *Graph, keep func(v int) bool) *HopGraph {
	return NewHopGraph(g.N(), keep, g.M(), func(i int) (int, int) {
		return int(g.Edge(i).A), int(g.Edge(i).B)
	})
}

// checkHopKernel compares the kernel on the subgraph induced on the nodes
// with keep[v] set against BFSInto on an explicit copy of that subgraph, in
// which the dropped nodes are isolated. Every source must be kept.
func checkHopKernel(t *testing.T, g *Graph, keep []bool, sources []int) {
	t.Helper()
	n := g.N()
	sub := New(n)
	for _, e := range g.Edges() {
		if keep[e.A] && keep[e.B] {
			sub.AddEdge(int(e.A), int(e.B))
		}
	}
	got := sweepMatrix(t, inducedHopGraph(g, func(v int) bool { return keep[v] }), n, sources)
	want := make([]int32, n)
	queue := make([]int32, n)
	for i, s := range sources {
		sub.BFSInto(s, want, queue)
		for v := range want {
			if got[i][v] != want[v] {
				t.Fatalf("source %d (#%d of %d): dist[%d] = %d, BFSInto says %d",
					s, i, len(sources), v, got[i][v], want[v])
			}
		}
	}
}

// TestHopKernelMatchesBFS is the kernel's differential property test: on
// random multigraphs with parallel edges, joined by a second component and
// a few isolated nodes, with about a fifth of the nodes dropped from the
// induced subgraph and the sources drawn from the kept ones (so the rest
// only relay), the whole distance matrix equals BFSInto's. Source counts
// sit on both sides of the 64-bit word boundary.
func TestHopKernelMatchesBFS(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		rng := NewRNG(seed)
		a, _ := randomMultigraphN(rng, 240+rng.Intn(60))
		b, _ := randomMultigraphN(rng, 5+rng.Intn(30))
		g := New(a.N() + b.N() + 3) // the last three nodes stay isolated
		for _, e := range a.Edges() {
			g.AddEdge(int(e.A), int(e.B))
		}
		for _, e := range b.Edges() {
			g.AddEdge(a.N()+int(e.A), a.N()+int(e.B))
		}
		keep := make([]bool, g.N())
		var kept []int
		for v := range keep {
			if keep[v] = rng.Intn(5) > 0; keep[v] {
				kept = append(kept, v)
			}
		}
		for _, count := range []int{1, 63, 64, 65, 129} {
			sources := make([]int, count)
			for i, p := range rng.Perm(len(kept))[:count] {
				sources[i] = kept[p]
			}
			checkHopKernel(t, g, keep, sources)
		}
	}
}

func TestHopKernelRejectsBadSources(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	h := inducedHopGraph(g, func(v int) bool { return v != 2 })
	visit := func(level, node int, fresh uint64) {}
	for _, src := range []int{-1, 2, 4} {
		if err := h.Sweep([]int{0, src}, visit); err == nil {
			t.Errorf("source %d: expected an error", src)
		}
	}
	if err := h.Sweep(make([]int, HopBatch+1), visit); err == nil {
		t.Errorf("%d sources: expected an error", HopBatch+1)
	}
	if err := h.Sweep(nil, visit); err != nil {
		t.Errorf("no sources: %v", err)
	}
}

// FuzzHopKernelAgrees decodes bytes into a multigraph, a kept-node set and
// a source list (duplicates allowed) and holds the kernel to BFSInto.
func FuzzHopKernelAgrees(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])
		ns := int(data[1]) % 131
		drop := int(data[2]) % 8 // 0 keeps every node, else one residue class of a node hash goes
		data = data[3:]
		if len(data) < ns {
			return
		}
		keep := make([]bool, n)
		for v := range keep {
			keep[v] = drop == 0 || (v*7+3)%8 != drop
		}
		var sources []int
		for _, b := range data[:ns] {
			if v := int(b) % n; keep[v] {
				sources = append(sources, v)
			}
		}
		data = data[ns:]
		g := New(n)
		for ; len(data) >= 2; data = data[2:] {
			if a, b := int(data[0])%n, int(data[1])%n; a != b {
				g.AddEdge(a, b)
			}
		}
		checkHopKernel(t, g, keep, sources)
	})
}
