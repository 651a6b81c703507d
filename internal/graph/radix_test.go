package graph

import (
	"fmt"
	"math"
	"testing"
)

// fptasLateLengths draws what the FPTAS oracle presents deep into a solve:
// every edge starts at the floor δ ≈ 3e-34 and a random third have been
// multiplied by (1+ε)^j, ε = 0.1, j ≤ 760, for a spread of ~1e31. Adding a
// floor-sized length to a grown distance rounds back to that distance, so
// nodes keep arriving at the current minimum mid-drain, with ids on either
// side of the ones already settled there.
func fptasLateLengths(rng *RNG, m int) []float64 {
	length := make([]float64, m)
	for i := range length {
		length[i] = 3e-34
		if rng.Intn(3) == 0 {
			length[i] *= math.Pow(1.1, float64(rng.Intn(761)))
		}
	}
	return length
}

// ssspLengths draws per-edge lengths from one of five distributions: uniform
// (probe-like), clamped into the warm-seed ratio band [1, m^¼] (warm-start
// lengths), power-law over a 2^16 spread, FPTAS-late (fptasLateLengths) and
// all-equal (every pop a tie).
func ssspLengths(rng *RNG, m int, dist int) []float64 {
	if dist == 3 {
		return fptasLateLengths(rng, m)
	}
	length := make([]float64, m)
	switch dist {
	case 0: // uniform
		for i := range length {
			length[i] = 0.1 + rng.Float64()
		}
	case 1: // clamped band, ratios in [1, m^¼] over a common floor
		rmax := math.Pow(float64(m), 0.25)
		for i := range length {
			length[i] = 0.01 * (1 + rng.Float64()*(rmax-1))
		}
	case 2: // power-law
		for i := range length {
			length[i] = math.Pow(2, rng.Float64()*16)
		}
	default: // all-equal
		for i := range length {
			length[i] = 0.3
		}
	}
	return length
}

// sameState fails unless the two workspaces hold bit-identical Dist and Prev
// on every node, settled and tentative alike.
func sameState(t *testing.T, what string, want, got *Workspace) {
	t.Helper()
	for v := range want.Dist {
		if want.Dist[v] != got.Dist[v] || want.Prev[v] != got.Prev[v] { //flatlint:ignore floatcmp the kernels must agree bit for bit, tentative state included
			t.Fatalf("%s: diverge at node %d: dist %g vs %g, prev %d vs %d",
				what, v, want.Dist[v], got.Dist[v], want.Prev[v], got.Prev[v])
		}
	}
}

// cleanQueues fails unless w holds the between-runs invariant of both
// kernels: empty heap and buckets, no node marked queued.
func cleanQueues(t *testing.T, what string, w *Workspace) {
	t.Helper()
	if len(w.heap) != 0 || w.occ != 0 || w.zeroN != 0 {
		t.Fatalf("%s: queue not empty: heap %d, occ %#x, zeroN %d", what, len(w.heap), w.occ, w.zeroN)
	}
	for i, b := range w.bkt {
		if len(b) != 0 {
			t.Fatalf("%s: bucket %d holds %v", what, i, b)
		}
	}
	for i, word := range w.zero {
		if word != 0 {
			t.Fatalf("%s: bitset word %d = %#x", what, i, word)
		}
	}
	if len(w.pos) != w.g.N() || len(w.bnum) != w.g.N() || len(w.zero) != (w.g.N()+63)/64 {
		t.Fatalf("%s: queue state sized %d/%d/%d for %d nodes", what, len(w.pos), len(w.bnum), len(w.zero), w.g.N())
	}
	for v := range w.pos {
		if w.pos[v] != -1 || w.bnum[v] != -1 {
			t.Fatalf("%s: node %d still marked queued (pos %d, bnum %d)", what, v, w.pos[v], w.bnum[v])
		}
	}
}

// TestDeltaStepBitIdenticalToDijkstra is the 60-seed differential suite: on
// random multigraphs of 12..23, 65..94 and 129..188 nodes (so the bucket-0
// bitset crosses one and two word boundaries) under each ssspLengths
// distribution, the radix kernel's entire Dist/Prev state — settled *and*
// tentative, full runs and early-exited target runs alike — must be
// bit-identical to the heap kernel's. Even seeds add zero-length edges, a
// zero-length parallel pair included; those run on the radix kernel itself
// (it has no fallback), arriving in bucket 0 mid-drain. One workspace per
// kernel is reused across all runs of a seed so stale queue state cannot
// hide.
func TestDeltaStepBitIdenticalToDijkstra(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		rng := NewRNG(seed)
		var g *Graph
		switch seed / 5 % 3 {
		case 0:
			g, _ = randomMultigraph(rng)
		case 1:
			g, _ = randomMultigraphN(rng, 65+rng.Intn(30))
		default:
			g, _ = randomMultigraphN(rng, 129+rng.Intn(60))
		}
		n := g.N()
		length := ssspLengths(rng, g.M(), int(seed%5))
		if seed%2 == 0 {
			for j := 0; j < 3; j++ {
				length[rng.Intn(g.M())] = 0
			}
			e := g.Edge(rng.Intn(g.M()))
			g.AddEdge(int(e.A), int(e.B))
			g.SortAdjacency()
			length = append(length, 0)
			length[rng.Intn(g.M())] = 0
		}
		heap := g.NewWorkspace()
		radix := g.NewWorkspace()

		for _, src := range []int{0, rng.Intn(n)} {
			what := fmt.Sprintf("seed %d src %d", seed, src)
			heap.Dijkstra(src, length)
			radix.DeltaStep(src, length)
			sameState(t, what+" full", heap, radix)

			// Early-exited target runs: duplicates must count once, and the
			// stop-point state must match the heap's exactly (same settle
			// order means the same nodes hold tentative values).
			targets := []int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
			targets = append(targets, targets[0])
			heap.DijkstraTargets(src, length, targets)
			radix.DeltaStepTargets(src, length, targets)
			sameState(t, what+" targets", heap, radix)
			cleanQueues(t, what+" after early exit", radix)

			// A full run right after the early exit must match a fresh
			// workspace's.
			radix.DeltaStep(src, length)
			fresh := g.NewWorkspace()
			fresh.Dijkstra(src, length)
			sameState(t, what+" post-exit", fresh, radix)
		}
	}
}

// TestDeltaStepArrivalBelowSettledIDs pins the case a forward-only scan of
// bucket 0 gets wrong: 1 + 1e-30 rounds to 1, so node 0 arrives at the
// current minimum after nodes 4 and 5 (higher ids, same distance) have
// settled and must still settle before node 6, which decides node 7's tree
// edge.
func TestDeltaStepArrivalBelowSettledIDs(t *testing.T) {
	g := New(8)
	for _, e := range [][2]int{{3, 4}, {3, 5}, {3, 6}, {5, 0}, {0, 7}, {6, 7}} {
		g.AddEdge(e[0], e[1])
	}
	g.SortAdjacency()
	length := []float64{1, 1, 1, 1e-30, 1, 1}
	heap, radix := g.NewWorkspace(), g.NewWorkspace()
	heap.Dijkstra(3, length)
	radix.DeltaStep(3, length)
	sameState(t, "rounded arrival", heap, radix)
	if radix.Prev[7] != 4 {
		t.Errorf("prev[7] = edge %d, want edge 4 (via node 0, which settles before node 6)", radix.Prev[7])
	}
}

// TestDeltaStepUnreachableTargets pins the unreachable-target contract to
// DijkstraTargets': the search exhausts the component and reports +Inf.
func TestDeltaStepUnreachableTargets(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4) // separate component
	g.SortAdjacency()
	length := []float64{1, 1, 1}
	ws := g.NewWorkspace()
	ws.DeltaStepTargets(0, length, []int32{2, 3})
	if ws.Dist[2] != 2 { //flatlint:ignore floatcmp unit lengths sum exactly
		t.Errorf("dist[2] = %g, want 2", ws.Dist[2])
	}
	if !math.IsInf(ws.Dist[3], 1) {
		t.Errorf("dist[3] = %g, want +Inf (unreachable)", ws.Dist[3])
	}
	// The workspace must be reusable after exhausting a component.
	ws.DeltaStep(3, length)
	if ws.Dist[4] != 1 || !math.IsInf(ws.Dist[0], 1) { //flatlint:ignore floatcmp unit lengths sum exactly
		t.Errorf("reuse after exhaustion: dist[4] = %g, dist[0] = %g", ws.Dist[4], ws.Dist[0])
	}
}

// TestDeltaStepAllZeroLengths covers the degenerate single-bucket case:
// every edge at length zero means every reachable node is at distance 0 and
// the lowest-id-first drain of bucket 0 decides the whole tree.
func TestDeltaStepAllZeroLengths(t *testing.T) {
	rng := NewRNG(11)
	g, _ := randomMultigraph(rng)
	length := make([]float64, g.M())
	heap := g.NewWorkspace()
	radix := g.NewWorkspace()
	heap.Dijkstra(0, length)
	radix.DeltaStep(0, length)
	sameState(t, "all-zero lengths", heap, radix)
	for v := 0; v < g.N(); v++ {
		if radix.Dist[v] != 0 { //flatlint:ignore floatcmp zero-length edges sum exactly
			t.Fatalf("dist[%d] = %g, want 0 on a connected zero-length graph", v, radix.Dist[v])
		}
	}
}

// TestWorkspaceRebindAcrossSizes walks one workspace large → small →
// larger-than-first, the way the solver pool rebinds it across every k of a
// sweep column, leaving an early-exited targets run behind before each
// rebind. After every rebind both kernels must match a fresh workspace and
// leave the queues clean.
func TestWorkspaceRebindAcrossSizes(t *testing.T) {
	rng := NewRNG(5)
	ws := New(1).NewWorkspace()
	for _, n := range []int{150, 20, 70, 300} {
		g, _ := randomMultigraphN(rng, n)
		length := fptasLateLengths(rng, g.M())
		ws.Rebind(g)
		cleanQueues(t, "after rebind", ws)
		fresh := g.NewWorkspace()
		src := rng.Intn(n)

		fresh.Dijkstra(src, length)
		ws.DeltaStep(src, length)
		sameState(t, "radix after rebind", fresh, ws)
		ws.Dijkstra(src, length)
		sameState(t, "heap after rebind", fresh, ws)

		targets := []int32{int32(rng.Intn(n))}
		fresh.DijkstraTargets(src, length, targets)
		ws.DeltaStepTargets(src, length, targets)
		sameState(t, "targets after rebind", fresh, ws)
		cleanQueues(t, "after early exit", ws)
	}
}

// FuzzSSSPKernelsAgree decodes arbitrary bytes into a small multigraph,
// non-negative lengths spanning 0, denormals and 1e-300..1e300, a source and
// a target list, and requires the heap and radix kernels to leave
// bit-identical Dist/Prev — early-exited and full — and clean queues. The
// seed corpus is checked in under testdata/fuzz/FuzzSSSPKernelsAgree.
func FuzzSSSPKernelsAgree(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])
		src := int(data[1]) % n
		nt := int(data[2]) % 5
		data = data[3:]
		if len(data) < nt {
			return
		}
		targets := make([]int32, nt)
		for i := range targets {
			targets[i] = int32(int(data[i]) % n)
		}
		data = data[nt:]

		g := New(n)
		var length []float64
		for ; len(data) >= 4; data = data[4:] {
			a, b, d := int(data[0])%n, int(data[1])%n, float64(data[3])
			if a == b {
				continue
			}
			g.AddEdge(a, b)
			var l float64
			switch data[2] % 8 {
			case 0:
				l = 0
			case 1:
				l = 5e-324 * (1 + d)
			case 2:
				l = 1e-300 * (1 + d)
			case 3:
				l = 3e-34 * math.Pow(1.1, 3*d)
			case 4:
				l = 1
			case 5:
				l = d / 16
			case 6:
				l = 1e300
			default:
				l = math.Ldexp(1, int(data[3])-128)
			}
			length = append(length, l)
		}
		g.SortAdjacency()

		heap, radix := g.NewWorkspace(), g.NewWorkspace()
		heap.DijkstraTargets(src, length, targets)
		radix.DeltaStepTargets(src, length, targets)
		sameState(t, "targets", heap, radix)
		cleanQueues(t, "heap after targets", heap)
		cleanQueues(t, "radix after targets", radix)
		heap.Dijkstra(src, length)
		radix.DeltaStep(src, length)
		sameState(t, "full", heap, radix)
		cleanQueues(t, "radix after full", radix)
	})
}
