package graph

import (
	"math"
	"testing"

	"flattree/internal/lp"
)

// checkFlow holds the state a Run left behind to what makes it a maximum
// flow: every arc within its capacity, conservation at every node (what
// enters minus what leaves is what the node absorbed, the source emitting
// the total), every drain within its capacity, and a cut of the same value —
// the edges leaving the Reached set at full capacity plus the drains inside
// it, all full.
func checkFlow(t *testing.T, g *Graph, capacity, drain []float64, src int, f *MaxFlow, value float64) {
	t.Helper()
	tol := 1e-9 * (1 + value)
	net := make([]float64, g.N()) // inflow − outflow
	for e, ed := range g.Edges() {
		lo, hi := min(ed.A, ed.B), max(ed.A, ed.B)
		fwd, back := f.res[2*e], f.res[2*e+1]
		if fwd < 0 || back < 0 || math.Abs(fwd+back-2*capacity[e]) > tol {
			t.Fatalf("edge %d: residuals %g, %g do not split 2·cap = %g", e, fwd, back, 2*capacity[e])
		}
		x := (back - fwd) / 2 // net flow lo → hi
		net[hi] += x
		net[lo] -= x
	}
	absorbed, cut := 0.0, 0.0
	for v := range net {
		a := f.Absorbed(v)
		if a < 0 || a > drain[v] {
			t.Fatalf("node %d absorbed %g of drain %g", v, a, drain[v])
		}
		absorbed += a
		want := a
		if v == src {
			want -= value
		}
		if math.Abs(net[v]-want) > tol {
			t.Fatalf("node %d: net inflow %g, absorbed %g (source emits %g)", v, net[v], a, value)
		}
		if f.Reached(v) {
			cut += drain[v]
			if a != drain[v] {
				t.Fatalf("node %d is on the source side with drain %g only filled to %g", v, drain[v], a)
			}
		}
	}
	if !f.Reached(src) {
		t.Fatal("source not on its own side of the cut")
	}
	for e, ed := range g.Edges() {
		if f.Reached(int(ed.A)) != f.Reached(int(ed.B)) {
			cut += capacity[e]
		}
	}
	if math.Abs(absorbed-value) > tol {
		t.Fatalf("drains absorbed %g, Run returned %g", absorbed, value)
	}
	if math.Abs(cut-value) > tol {
		t.Fatalf("cut capacity %g, flow value %g", cut, value)
	}
}

func TestMaxFlowSmallCases(t *testing.T) {
	// 0 -1- 1 -½- 2, drain at 2: the half-capacity edge binds.
	line := New(3)
	line.AddEdge(0, 1)
	line.AddEdge(2, 1) // stored high→low: arcs are oriented by node id, not by A/B
	f := line.NewMaxFlow()
	if v := f.Run(0, []float64{1, 0.5}, []float64{0, 0, 9}); v != 0.5 {
		t.Errorf("line: flow %g, want 0.5", v)
	}
	checkFlow(t, line, []float64{1, 0.5}, []float64{0, 0, 9}, 0, f, 0.5)
	// A drain below the path capacity binds instead, and the same workspace
	// starts again from the zero flow.
	if v := f.Run(0, []float64{1, 0.5}, []float64{0, 0.125, 0.25}); v != 0.375 {
		t.Errorf("line, small drains: flow %g, want 0.375", v)
	}
	checkFlow(t, line, []float64{1, 0.5}, []float64{0, 0.125, 0.25}, 0, f, 0.375)

	// Two parallel edges and a detour: 0=1 (two edges), 0-2-1, drain at 1.
	multi := New(3)
	multi.AddEdge(0, 1)
	multi.AddEdge(0, 1)
	multi.AddEdge(0, 2)
	multi.AddEdge(2, 1)
	capacity := []float64{1, 1, 1, 0.25}
	f.Rebind(multi)
	if v := f.Run(0, capacity, []float64{0, 5, 0}); v != 2.25 {
		t.Errorf("parallel edges: flow %g, want 2.25", v)
	}
	checkFlow(t, multi, capacity, []float64{0, 5, 0}, 0, f, 2.25)

	// A drain in another component is never reached, and says so.
	split := New(4)
	split.AddEdge(0, 1)
	split.AddEdge(2, 3)
	f.Rebind(split)
	drain := []float64{0, 1, 0, 1}
	if v := f.Run(0, []float64{3, 3}, drain); v != 1 {
		t.Errorf("two components: flow %g, want 1", v)
	}
	if f.Reached(3) || f.Absorbed(3) != 0 {
		t.Error("drain in the other component reached")
	}
	checkFlow(t, split, []float64{3, 3}, drain, 0, f, 1)
}

// TestMaxFlowNeedsResidualArcs is the textbook instance a greedy walk gets
// wrong: the first shortest walk 0-1-2-3 blocks both others unless the flow
// on 1-2 is later pushed back.
func TestMaxFlowNeedsResidualArcs(t *testing.T) {
	g := New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 2}, {1, 5}, {5, 3}} {
		g.AddEdge(e[0], e[1])
	}
	capacity := []float64{1, 1, 1, 1, 1, 1, 1}
	drain := []float64{0, 0, 0, 2, 0, 0}
	f := g.NewMaxFlow()
	v := f.Run(0, capacity, drain)
	if v != 2 {
		t.Errorf("flow %g, want 2", v)
	}
	checkFlow(t, g, capacity, drain, 0, f, v)
}

// maxFlowInstance draws a connected random regular graph
// with fractional capacities and a handful of drains.
func maxFlowInstance(t testing.TB, seed uint64, n, deg int) (*Graph, []float64, []float64) {
	t.Helper()
	rng := NewRNG(seed)
	degree := make([]int, n)
	for i := range degree {
		degree[i] = deg
	}
	g, err := BuildConnected(degree, rng)
	if err != nil {
		t.Fatal(err)
	}
	capacity := make([]float64, g.M())
	for e := range capacity {
		capacity[e] = 0.1 + rng.Float64()
	}
	drain := make([]float64, n)
	for i := 0; i < 1+n/4; i++ {
		drain[1+rng.Intn(n-1)] = 3 * rng.Float64()
	}
	return g, capacity, drain
}

// TestMaxFlowRandomInstances checks the max-flow/min-cut certificate on
// generated graphs, that a second workspace reproduces the first's state bit
// for bit, and that a rebound workspace carries nothing over.
func TestMaxFlowRandomInstances(t *testing.T) {
	shared := New(1).NewMaxFlow()
	for seed := uint64(0); seed < 40; seed++ {
		n := 6 + int(seed%5)*7
		g, capacity, drain := maxFlowInstance(t, seed, n, 3+int(seed%3))
		fresh := g.NewMaxFlow()
		v := fresh.Run(0, capacity, drain)
		checkFlow(t, g, capacity, drain, 0, fresh, v)
		shared.Rebind(g)
		if w := shared.Run(0, capacity, drain); w != v {
			t.Fatalf("seed %d: reused workspace found %g, fresh one %g", seed, w, v)
		}
		for a := range fresh.res {
			if fresh.res[a] != shared.res[a] {
				t.Fatalf("seed %d: arc %d residual %g vs %g", seed, a, shared.res[a], fresh.res[a])
			}
		}
	}
}

func TestMaxFlowSteadyStateDoesNotAllocate(t *testing.T) {
	g, capacity, drain := maxFlowInstance(t, 7, 64, 6)
	f := g.NewMaxFlow()
	f.Run(0, capacity, drain)
	if a := testing.AllocsPerRun(10, func() {
		f.Rebind(g)
		f.Run(0, capacity, drain)
	}); a != 0 {
		t.Errorf("warm Rebind+Run allocates %v times", a)
	}
}

// maxFlowLP states the same problem for the simplex reference: one variable
// per arc and one per drain, conservation at every node but the source,
// arcs of one edge sharing its capacity, maximize the absorbed total.
func maxFlowLP(t *testing.T, g *Graph, capacity, drain []float64, src int) float64 {
	t.Helper()
	m, n := g.M(), g.N()
	p := lp.NewProblem(2*m + n)
	p.Maximize()
	for v := 0; v < n; v++ {
		p.SetObjectiveCoef(2*m+v, 1)
		p.AddConstraint(map[int]float64{2*m + v: 1}, lp.LE, drain[v])
		if v == src {
			continue
		}
		coefs := map[int]float64{2*m + v: -1}
		for _, h := range g.Neighbors(v) {
			out := int(arc(int32(v), h))
			coefs[out]--
			coefs[out^1]++
		}
		p.AddConstraint(coefs, lp.EQ, 0)
	}
	for e := 0; e < m; e++ {
		p.AddConstraint(map[int]float64{2 * e: 1, 2*e + 1: 1}, lp.LE, capacity[e])
	}
	sol, err := p.Solve()
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("reference LP: status %v, err %v", sol.Status, err)
	}
	return sol.Objective
}

// FuzzMaxFlowMatchesLP decodes bytes into a multigraph on 2..8 nodes —
// byte 0 the node count, byte 1 the source, byte 2 the edge count, then
// (a, b, capacity) triples with capacities in sevenths, self loops dropped
// and parallel edges kept, then (node, drain) pairs in fifths — and holds
// Dinic's value to the simplex optimum and its state to checkFlow. The seed
// corpus is checked in under testdata/fuzz/FuzzMaxFlowMatchesLP.
func FuzzMaxFlowMatchesLP(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%7
		src := int(data[1]) % n
		edges := int(data[2]) % 13
		g := New(n)
		var capacity []float64
		rest := data[3:]
		for ; edges > 0 && len(rest) >= 3; edges, rest = edges-1, rest[3:] {
			if a, b := int(rest[0])%n, int(rest[1])%n; a != b {
				g.AddEdge(a, b)
				capacity = append(capacity, float64(1+int(rest[2])%28)/7)
			}
		}
		drain := make([]float64, n)
		for ; len(rest) >= 2; rest = rest[2:] {
			drain[int(rest[0])%n] = float64(int(rest[1])%40) / 5
		}
		mf := g.NewMaxFlow()
		v := mf.Run(src, capacity, drain)
		checkFlow(t, g, capacity, drain, src, mf, v)
		if want := maxFlowLP(t, g, capacity, drain, src); math.Abs(v-want) > 1e-7*(1+want) {
			t.Fatalf("Dinic %g, simplex %g", v, want)
		}
	})
}
