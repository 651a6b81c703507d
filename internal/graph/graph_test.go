package graph

import (
	"reflect"
	"testing"
	"testing/quick"
)

// New returns a graph with n isolated nodes whose adjacency lists grow as
// edges arrive; the builders size theirs up front with NewWithDegrees.
func New(n int) *Graph {
	return &Graph{adj: make([][]Half, n)}
}

// removeEdgeBetween deletes one edge between u and w. Edge indices of other
// edges are preserved by swapping the last edge into the vacated slot, so
// callers must not hold edge indices across a removal.
func (g *Graph) removeEdgeBetween(u, w int) {
	var id int32 = -1
	for _, h := range g.adj[u] {
		if h.Peer == int32(w) {
			id = h.Edge
			break
		}
	}
	if id < 0 {
		panic("graph: removeEdgeBetween: no such edge")
	}
	g.removeEdgeAt(id)
}

func ring(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

func TestBFSRing(t *testing.T) {
	g := ring(10)
	dist := g.BFS(0)
	want := []int32{0, 1, 2, 3, 4, 5, 4, 3, 2, 1}
	for i, d := range dist {
		if d != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, d, want[i])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	// 2 and 3 isolated.
	dist := g.BFS(0)
	if dist[1] != 1 || dist[2] != -1 || dist[3] != -1 {
		t.Errorf("dist = %v", dist)
	}
}

func TestConnected(t *testing.T) {
	g := ring(6)
	if !g.Connected() {
		t.Error("ring should be connected")
	}
	h := New(5)
	h.AddEdge(0, 1)
	h.AddEdge(2, 3)
	if h.Connected() {
		t.Error("two components should not be connected")
	}
	// Isolated nodes are ignored.
	i := New(3)
	i.AddEdge(0, 1)
	if !i.Connected() {
		t.Error("isolated node must not break connectivity")
	}
	if !New(0).Connected() || !New(3).Connected() {
		t.Error("edgeless graphs are trivially connected")
	}
}

// TestComponents: labels follow each component's lowest node, and an
// isolated node (including one that sorts before any edge) is a component of
// its own.
func TestComponents(t *testing.T) {
	g := New(7)
	g.AddEdge(5, 1)
	g.AddEdge(1, 3)
	g.AddEdge(2, 6)
	label, n := g.Components()
	want := []int32{0, 1, 2, 1, 3, 1, 2}
	if n != 4 || !reflect.DeepEqual(label, want) {
		t.Errorf("Components() = %v, %d; want %v, 4", label, n, want)
	}
	if label, n := New(0).Components(); len(label) != 0 || n != 0 {
		t.Errorf("empty graph: %v, %d", label, n)
	}
}

// TestLabelComponentsMatchesBFS holds the union-find labeller to the
// labelling it replaced — a BFS from each unlabelled node in ascending
// order — on sparse random multigraphs with many components, isolated
// nodes and parallel edges, fed in random edge order.
func TestLabelComponentsMatchesBFS(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := NewRNG(seed)
		n := 1 + rng.Intn(120)
		g := New(n)
		for range rng.Intn(n + 1) {
			if a, b := rng.Intn(n), rng.Intn(n); a != b {
				g.AddEdge(a, b)
			}
		}
		want := make([]int32, n)
		for v := range want {
			want[v] = -1
		}
		wantCount := 0
		for v := range want {
			if want[v] >= 0 {
				continue
			}
			for u, d := range g.BFS(v) {
				if d >= 0 {
					want[u] = int32(wantCount)
				}
			}
			wantCount++
		}
		order := rng.Perm(g.M())
		label, count := LabelComponents(n, g.M(), func(i int) (int, int) {
			e := g.Edge(order[i])
			return int(e.B), int(e.A)
		})
		if count != wantCount || !reflect.DeepEqual(label, want) {
			t.Fatalf("seed %d: labels %v (%d), BFS says %v (%d)", seed, label, count, want, wantCount)
		}
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("self loop should panic")
		}
	}()
	New(2).AddEdge(1, 1)
}

func TestHasEdgeAndParallel(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1) // parallel edge allowed
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Error("HasEdge wrong")
	}
	if len(g.Neighbors(0)) != 2 || len(g.Neighbors(2)) != 0 {
		t.Error("Degree wrong with parallel edges")
	}
}

func TestRemoveEdgeBetween(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.removeEdgeBetween(1, 2)
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if g.HasEdge(1, 2) {
		t.Error("edge 1-2 still present")
	}
	// Remaining edges intact and consistent with adjacency.
	for _, e := range g.Edges() {
		found := false
		for _, h := range g.Neighbors(int(e.A)) {
			if h.Peer == e.B {
				found = true
			}
		}
		if !found {
			t.Errorf("edge %v missing from adjacency", e)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds matched %d/100 draws", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) hit only %d values", len(seen))
	}
}

func TestPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := NewRNG(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// TestRandomDegreeProperties: for regular degree sequences the builder must
// return a simple graph respecting every degree bound, with at most a
// handful of unused ports.
func TestRandomDegreeProperties(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw, dRaw uint8) bool {
		n := int(nRaw%40) + 8
		d := int(dRaw%6) + 3
		if d >= n {
			d = n - 1
		}
		degrees := make([]int, n)
		for i := range degrees {
			degrees[i] = d
		}
		g, err := RandomDegree(degrees, NewRNG(seed))
		if err != nil {
			return false
		}
		// Simple graph: no self loops (AddEdge panics on those), no
		// parallel edges.
		seen := make(map[[2]int32]bool)
		for _, e := range g.Edges() {
			a, b := e.A, e.B
			if a > b {
				a, b = b, a
			}
			if seen[[2]int32{a, b}] {
				return false
			}
			seen[[2]int32{a, b}] = true
		}
		// Degree bounds respected, few wasted ports.
		wasted := 0
		for v := 0; v < n; v++ {
			if len(g.Neighbors(v)) > d {
				return false
			}
			wasted += d - len(g.Neighbors(v))
		}
		return wasted <= 4
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}

func TestBuildConnected(t *testing.T) {
	degrees := make([]int, 30)
	for i := range degrees {
		degrees[i] = 4
	}
	g, err := BuildConnected(degrees, NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Error("BuildConnected returned a disconnected graph")
	}
}

func TestRandomDegreeZeroAndNegative(t *testing.T) {
	if _, err := RandomDegree([]int{2, -1}, NewRNG(1)); err == nil {
		t.Error("negative degree should error")
	}
	g, err := RandomDegree([]int{0, 0, 0}, NewRNG(1))
	if err != nil || g.M() != 0 {
		t.Errorf("all-zero degrees: g.M()=%d err=%v", g.M(), err)
	}
}

// TestNewWithDegreesListsDoNotOverlap fills a slab-backed graph to its
// stated degrees, then appends past node 0's degree: the extra entry must
// land in fresh storage, not in node 1's list that follows it in the slab.
func TestNewWithDegreesListsDoNotOverlap(t *testing.T) {
	g := NewWithDegrees([]int{1, 2, 1, 0})
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 3) // beyond the stated degree of both endpoints
	want := [][]Half{
		{{Peer: 1, Edge: 0}, {Peer: 3, Edge: 2}},
		{{Peer: 0, Edge: 0}, {Peer: 2, Edge: 1}},
		{{Peer: 1, Edge: 1}},
		{{Peer: 0, Edge: 2}},
	}
	for v, w := range want {
		got := g.Neighbors(v)
		if len(got) != len(w) {
			t.Fatalf("node %d: neighbours %v, want %v", v, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("node %d: neighbours %v, want %v", v, got, w)
			}
		}
	}
	if g.M() != 3 {
		t.Errorf("M = %d, want 3", g.M())
	}
}
