package graph

import (
	"fmt"
	"slices"
	"testing"
)

// triangleWithSpare builds a triangle a-b-c (nodes 0,1,2) plus an isolated
// node 3, returning the graph and a free-port vector giving node 3 two
// ports. Pairing alone cannot consume them (a single active node), so the
// augmentation is forced into a type-1 edge swap.
func triangleWithSpare() (*Graph, []int) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	return g, []int{0, 0, 0, 2}
}

func TestAugmentRandomPairsFreePorts(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	free := []int{0, 0, 1, 1, 1, 1}
	res, err := AugmentRandom(g, free, nil, NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Leftover != 0 {
		t.Errorf("leftover = %d, want 0", res.Leftover)
	}
	if len(res.Added) != 2 {
		t.Fatalf("added %d edges, want 2: %v", len(res.Added), res.Added)
	}
	if len(res.Broken) != 0 {
		t.Errorf("broke edges %v with no swap needed", res.Broken)
	}
	deg := make([]int, g.N())
	for _, e := range g.Edges() {
		deg[e.A]++
		deg[e.B]++
	}
	want := []int{1, 1, 1, 1, 1, 1}
	for v, d := range deg {
		if d != want[v] {
			t.Errorf("node %d degree %d, want %d", v, d, want[v])
		}
	}
}

func TestAugmentRandomSwapBreaksEdge(t *testing.T) {
	g, free := triangleWithSpare()
	res, err := AugmentRandom(g, free, nil, NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Leftover != 0 {
		t.Fatalf("leftover = %d, want 0 (swap should consume both ports)", res.Leftover)
	}
	if len(res.Broken) != 1 || len(res.Added) != 2 {
		t.Fatalf("broken=%v added=%v, want one break and two new edges", res.Broken, res.Added)
	}
	if len(g.Neighbors(3)) != 2 {
		t.Errorf("spare node degree %d, want 2", len(g.Neighbors(3)))
	}
	if g.M() != 4 {
		t.Errorf("edge count %d, want 4", g.M())
	}
	for _, e := range res.Added {
		if e.A != 3 && e.B != 3 {
			t.Errorf("added edge %v does not touch the spare node", e)
		}
	}
}

func TestAugmentRandomCanBreakVeto(t *testing.T) {
	g, free := triangleWithSpare()
	res, err := AugmentRandom(g, free, func(int) bool { return false }, NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Broken) != 0 || len(res.Added) != 0 {
		t.Errorf("veto ignored: broken=%v added=%v", res.Broken, res.Added)
	}
	if res.Leftover != 2 {
		t.Errorf("leftover = %d, want 2", res.Leftover)
	}
	if g.M() != 3 {
		t.Errorf("edge count %d, want the untouched triangle", g.M())
	}
}

func TestAugmentRandomDeterministic(t *testing.T) {
	build := func() *Graph {
		g, err := RandomDegree([]int{4, 4, 4, 4, 4, 4, 4, 4}, NewRNG(11))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	run := func() (*Graph, AugmentResult) {
		g := build()
		// Free two ports each on half the nodes, as if their peers died.
		free := []int{2, 2, 2, 2, 0, 0, 0, 0}
		res, err := AugmentRandom(g, free, func(id int) bool { return id%2 == 0 }, NewRNG(99))
		if err != nil {
			t.Fatal(err)
		}
		return g, res
	}
	g1, r1 := run()
	g2, r2 := run()
	e1, e2 := g1.Edges(), g2.Edges()
	if len(e1) != len(e2) {
		t.Fatalf("edge counts differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, e1[i], e2[i])
		}
	}
	if len(r1.Added) != len(r2.Added) || len(r1.Broken) != len(r2.Broken) || r1.Leftover != r2.Leftover {
		t.Errorf("results differ: %+v vs %+v", r1, r2)
	}
}

func TestAugmentRandomValidation(t *testing.T) {
	g := New(3)
	if _, err := AugmentRandom(g, []int{1, 1}, nil, NewRNG(1)); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := AugmentRandom(g, []int{1, -1, 0}, nil, NewRNG(1)); err == nil {
		t.Error("negative free count accepted")
	}
}

func TestAugmentRandomNoSelfLoopsOrParallel(t *testing.T) {
	g, err := RandomDegree([]int{3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	free := make([]int, g.N())
	for v := range free {
		free[v] = 2
	}
	if _, err := AugmentRandom(g, free, nil, NewRNG(17)); err != nil {
		t.Fatal(err)
	}
	seen := make(map[[2]int32]bool)
	for _, e := range g.Edges() {
		if e.A == e.B {
			t.Fatalf("self loop at %d", e.A)
		}
		k := [2]int32{e.A, e.B}
		if e.A > e.B {
			k = [2]int32{e.B, e.A}
		}
		if seen[k] {
			t.Fatalf("parallel edge %v", e)
		}
		seen[k] = true
	}
}

// augmentRandomReference is AugmentRandom as it stood before it shared
// RandomDegree's wiring loop: its own copy of the pair-and-swap loop, with
// an eagerly extended edge-origin map. Kept as the differential oracle —
// same edges, same bookkeeping, same RNG draws — for
// TestAugmentRandomMatchesReference.
func augmentRandomReference(g *Graph, free []int, canBreak func(edgeID int) bool, rng *RNG) (AugmentResult, error) {
	var res AugmentResult
	n := g.N()
	if len(free) != n {
		return res, fmt.Errorf("graph: AugmentRandom: len(free)=%d, graph has %d nodes", len(free), n)
	}
	for v, f := range free {
		if f < 0 {
			return res, fmt.Errorf("graph: AugmentRandom: negative free port count %d at node %d", f, v)
		}
	}
	fr := append([]int(nil), free...)

	// orig maps the current edge index to the caller's pre-augmentation
	// edge index, or -1 for edges we added. removeEdgeAt swaps the last
	// edge into the vacated slot, so the mapping mirrors that move.
	orig := make([]int32, g.M())
	for i := range orig {
		orig[i] = int32(i)
	}
	addEdge := func(a, b int) {
		g.AddEdge(a, b)
		orig = append(orig, -1)
	}
	removeAt := func(idx int) {
		if o := orig[idx]; o >= 0 {
			res.Broken = append(res.Broken, int(o))
		}
		last := len(orig) - 1
		orig[idx] = orig[last]
		orig = orig[:last]
		g.removeEdgeAt(int32(idx))
	}
	breakable := func(idx int) bool {
		o := orig[idx]
		return o < 0 || canBreak == nil || canBreak(int(o))
	}

	active := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if fr[v] > 0 {
			active = append(active, v)
		}
	}
	removeInactive := func() {
		w := 0
		for _, v := range active {
			if fr[v] > 0 {
				active[w] = v
				w++
			}
		}
		active = active[:w]
	}

	stuck := 0
	for len(active) >= 2 || (len(active) == 1 && fr[active[0]] >= 2) {
		paired := false
		for try := 0; try < 32 && len(active) >= 2; try++ {
			i := rng.Intn(len(active))
			j := rng.Intn(len(active))
			if i == j {
				continue
			}
			a, b := active[i], active[j]
			if fr[a] == 0 || fr[b] == 0 {
				removeInactive()
				continue
			}
			if g.HasEdge(a, b) {
				continue
			}
			addEdge(a, b)
			fr[a]--
			fr[b]--
			paired = true
			break
		}
		if paired {
			stuck = 0
			removeInactive()
			continue
		}
		removeInactive()
		if len(active) == 0 {
			break
		}
		x := -1
		for _, v := range active {
			if fr[v] >= 2 {
				x = v
				break
			}
		}
		if g.M() == 0 {
			break
		}
		swapped := false
		if x >= 0 {
			// Swap type 1: x has two free ports; splice it into a random
			// breakable edge (u,w) not touching x.
			for try := 0; try < 256; try++ {
				idx := rng.Intn(g.M())
				e := g.Edge(idx)
				u, w := int(e.A), int(e.B)
				if u == x || w == x || g.HasEdge(x, u) || g.HasEdge(x, w) || !breakable(idx) {
					continue
				}
				removeAt(idx)
				addEdge(x, u)
				addEdge(x, w)
				fr[x] -= 2
				swapped = true
				break
			}
		} else if len(active) >= 2 {
			// Swap type 2: the remaining free ports sit one-per-node on
			// mutually adjacent nodes; break a breakable edge (u,w)
			// disjoint from two of them (x, y) and reconnect x-u, y-w.
			y := -1
			x = active[0]
			for _, v := range active[1:] {
				if v != x {
					y = v
					break
				}
			}
			if y >= 0 {
				for try := 0; try < 256 && !swapped; try++ {
					idx := rng.Intn(g.M())
					e := g.Edge(idx)
					if !breakable(idx) {
						continue
					}
					for _, or := range [2][2]int{{int(e.A), int(e.B)}, {int(e.B), int(e.A)}} {
						u, w := or[0], or[1]
						if u == x || u == y || w == x || w == y ||
							g.HasEdge(x, u) || g.HasEdge(y, w) {
							continue
						}
						removeAt(idx)
						addEdge(x, u)
						addEdge(y, w)
						fr[x]--
						fr[y]--
						swapped = true
						break
					}
				}
			}
		}
		if !swapped {
			stuck++
			if stuck > 8 {
				break // give up; leftover free ports stay unused
			}
			continue
		}
		stuck = 0
		removeInactive()
	}

	for _, f := range fr {
		res.Leftover += f
	}
	for idx, o := range orig {
		if o < 0 {
			res.Added = append(res.Added, g.Edge(idx))
		}
	}
	g.SortAdjacency()
	return res, nil
}

// TestAugmentRandomMatchesReference: sharing RandomDegree's loop must be
// invisible — for generated graphs with pre-existing (sometimes parallel)
// edges, odd free-port totals and canBreak vetoes, Added, Broken, Leftover,
// the edge table, every adjacency list and the generator's next draw equal
// the reference loop's.
func TestAugmentRandomMatchesReference(t *testing.T) {
	gen := NewRNG(20261017)
	vetoes := []func(int) bool{
		nil,
		func(id int) bool { return id%3 != 0 },
		func(int) bool { return false },
	}
	swapped, vetoed, leftover := 0, 0, 0
	for i := 0; i < 600; i++ {
		n := 2 + gen.Intn(24)
		type pair struct{ a, b int }
		var pre []pair
		for e := gen.Intn(3 * n); e > 0; e-- {
			a, b := gen.Intn(n), gen.Intn(n)
			if a != b {
				pre = append(pre, pair{a, b})
			}
		}
		free := make([]int, n)
		if i%4 == 3 {
			// One node hoards every free port, so pairing never starts
			// and the first swap moves an original edge to a new index:
			// later vetoes and Broken must map it back.
			free[gen.Intn(n)] = 2 + 2*gen.Intn(4)
		} else {
			for v := range free {
				free[v] = gen.Intn(5)
			}
		}
		build := func() *Graph {
			g := New(n)
			for _, p := range pre {
				g.AddEdge(p.a, p.b)
			}
			return g
		}
		canBreak := vetoes[i%len(vetoes)]
		seed := gen.Uint64()
		name := fmt.Sprintf("instance %d (n=%d, %d edges, free %v)", i, n, len(pre), free)

		want, wantRNG := build(), NewRNG(seed)
		wantRes, err := augmentRandomReference(want, slices.Clone(free), canBreak, wantRNG)
		if err != nil {
			t.Fatal(err)
		}
		got, gotRNG := build(), NewRNG(seed)
		gotRes, err := AugmentRandom(got, free, canBreak, gotRNG)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(wantRes.Added, gotRes.Added) || !slices.Equal(wantRes.Broken, gotRes.Broken) ||
			wantRes.Leftover != gotRes.Leftover {
			t.Fatalf("%s: results differ\nwant %+v\ngot  %+v", name, wantRes, gotRes)
		}
		if !slices.Equal(want.Edges(), got.Edges()) {
			t.Fatalf("%s: edge tables differ\nwant %v\ngot  %v", name, want.Edges(), got.Edges())
		}
		for v := 0; v < n; v++ {
			if !slices.Equal(want.Neighbors(v), got.Neighbors(v)) {
				t.Fatalf("%s: adjacency of %d differs", name, v)
			}
		}
		if w, g := wantRNG.Uint64(), gotRNG.Uint64(); w != g {
			t.Fatalf("%s: generators diverged (next draw %d vs %d)", name, w, g)
		}
		if len(gotRes.Broken) > 0 {
			swapped++
		}
		if canBreak != nil && gotRes.Leftover > 1 {
			vetoed++
		}
		if gotRes.Leftover > 0 {
			leftover++
		}
	}
	if swapped == 0 || vetoed == 0 || leftover == 0 {
		t.Errorf("instances did not reach swaps, vetoes and leftovers: %d/%d/%d", swapped, vetoed, leftover)
	}
	t.Logf("600 instances: %d broke edges, %d vetoed with leftovers, %d left ports", swapped, vetoed, leftover)
}
