// Package twostage builds the two-stage random graph baseline of the
// flat-tree paper (§3.1): each pod internally forms a random graph with the
// same number of links and the same server distribution as flat-tree in
// local-random mode, and a second random graph connects the pods — treated
// as super nodes — together with the core switches.
package twostage

import (
	"fmt"

	"flattree/internal/graph"
	"flattree/internal/topo"
)

// TwoStage is a constructed two-stage random graph.
type TwoStage struct {
	K int
	// N is the number of servers relocated from each edge switch to its
	// paired aggregation switch (flat-tree's n); it fixes the server
	// distribution the intra-pod stage must match.
	N         int
	Net       *topo.Network
	Edges     [][]int
	Aggs      [][]int
	Cores     []int
	ServerIDs []int
}

// New constructs a two-stage random graph with fat-tree(k) equipment,
// matching flat-tree(m, n) local-random mode resource-for-resource:
//   - pod switches host the same server counts (edge: k/2-n, agg: n),
//   - each pod has (k/2)^2 internal links (every switch has intra-degree
//     k/2, randomly wired),
//   - pod uplink budgets equal flat-tree's (edge: n, agg: k/2-n),
//   - the super-node stage wires pods (k^2/4 stubs each) and cores (k stubs
//     each) by a configuration-model random matching.
func New(k, n int, seed uint64) (*TwoStage, error) {
	if k < 4 || k%2 != 0 {
		return nil, fmt.Errorf("twostage: k must be even and >= 4, got %d", k)
	}
	half := k / 2
	if n < 0 || n > half {
		return nil, fmt.Errorf("twostage: n=%d out of range [0,%d]", n, half)
	}
	rng := graph.NewRNG(seed)
	for try := 0; try < 32; try++ {
		ts, err := build(k, n, graph.NewRNG(rng.Uint64()))
		if err != nil {
			return nil, err
		}
		if err := ts.Net.Validate(); err == nil {
			return ts, nil
		}
	}
	return nil, fmt.Errorf("twostage: could not build a connected instance in 32 attempts")
}

func build(k, n int, rng *graph.RNG) (*TwoStage, error) {
	half := k / 2
	b := topo.NewBuilder(fmt.Sprintf("twostage(k=%d,n=%d)", k, n))
	// Fat-tree(k) equipment and at most its link count: k³/4 server links,
	// (k/2)² links inside each pod, and one link per two super-node stubs.
	numStubs := k*k*k/4 + half*half*k
	b.Reserve(5*k*k/4+k*k*k/4, k*k*k/4+k*half*half+numStubs/2)
	ts := &TwoStage{K: k, N: n}

	ts.Cores = make([]int, half*half)
	for c := range ts.Cores {
		ts.Cores[c] = b.AddNode(topo.CoreSwitch, -1, c, k)
	}
	ts.Edges = make([][]int, k)
	ts.Aggs = make([][]int, k)
	podSwitches := make([]int, k*k)
	for p := 0; p < k; p++ {
		ts.Aggs[p] = podSwitches[p*k : p*k+half : p*k+half]
		ts.Edges[p] = podSwitches[p*k+half : (p+1)*k : (p+1)*k]
		for i := 0; i < half; i++ {
			ts.Aggs[p][i] = b.AddNode(topo.AggSwitch, p, i, k)
		}
		for j := 0; j < half; j++ {
			ts.Edges[p][j] = b.AddNode(topo.EdgeSwitch, p, j, k)
		}
	}
	// Servers: edge switch j hosts k/2-n, agg switch j hosts n, matching
	// flat-tree local-random mode. Server index order is pod-major then
	// pair-major so "continuous" placement fills pods in turn.
	ts.ServerIDs = make([]int, 0, k*half*half)
	for p := 0; p < k; p++ {
		for j := 0; j < half; j++ {
			for s := 0; s < half-n; s++ {
				idx := len(ts.ServerIDs)
				sv := b.AddNode(topo.Server, p, idx, 1)
				ts.ServerIDs = append(ts.ServerIDs, sv)
				b.AddLink(sv, ts.Edges[p][j], topo.TagClos)
			}
			for s := 0; s < n; s++ {
				idx := len(ts.ServerIDs)
				sv := b.AddNode(topo.Server, p, idx, 1)
				ts.ServerIDs = append(ts.ServerIDs, sv)
				b.AddLink(sv, ts.Aggs[p][j], topo.TagClos)
			}
		}
	}

	// Stage 1: a random k/2-regular graph inside each pod (k switches,
	// (k/2)^2 links — the same count as flat-tree's intra-pod edge-agg
	// mesh).
	podSw := make([]int, 0, k)
	deg := make([]int, k)
	for i := range deg {
		deg[i] = half
	}
	for p := 0; p < k; p++ {
		podSw = append(podSw[:0], ts.Edges[p]...)
		podSw = append(podSw, ts.Aggs[p]...)
		rg, err := graph.BuildConnected(deg, rng)
		if err != nil {
			return nil, fmt.Errorf("twostage: pod %d stage-1: %w", p, err)
		}
		for _, e := range rg.Edges() {
			b.AddLink(podSw[e.A], podSw[e.B], topo.TagRandom)
		}
	}

	// Stage 2: configuration-model matching over super-node stubs. Pods
	// have k^2/4 stubs, core switches have k stubs. Self pairs are repaired
	// by re-shuffling the tail; parallel super edges are legitimate (two
	// distinct physical links between the same super nodes).
	numPods := k
	numCores := half * half
	stubs := make([]int, 0, numStubs) // super-node id: pods are 0..k-1, cores are k..k+numCores-1
	for p := 0; p < numPods; p++ {
		for t := 0; t < k*k/4; t++ {
			stubs = append(stubs, p)
		}
	}
	for c := 0; c < numCores; c++ {
		for t := 0; t < k; t++ {
			stubs = append(stubs, numPods+c)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	for rounds := 0; rounds < 64; rounds++ {
		clean := true
		for i := 0; i+1 < len(stubs); i += 2 {
			if stubs[i] == stubs[i+1] {
				j := rng.Intn(len(stubs))
				stubs[i+1], stubs[j] = stubs[j], stubs[i+1]
				clean = false
			}
		}
		if clean {
			break
		}
	}

	// Pod-side uplink budgets mirror flat-tree local mode: edge j has n
	// uplink ports, agg j has k/2-n.
	type slot struct {
		sw   int
		free int
	}
	podSlots := make([][]slot, numPods)
	for p := 0; p < numPods; p++ {
		podSlots[p] = make([]slot, 0, 2*half)
		for j := 0; j < half; j++ {
			if n > 0 {
				podSlots[p] = append(podSlots[p], slot{ts.Edges[p][j], n})
			}
			if half-n > 0 {
				podSlots[p] = append(podSlots[p], slot{ts.Aggs[p][j], half - n})
			}
		}
	}
	claim := func(super int) int {
		if super >= numPods {
			return ts.Cores[super-numPods]
		}
		slots := podSlots[super]
		i := rng.Intn(len(slots))
		slots[i].free--
		sw := slots[i].sw
		if slots[i].free == 0 {
			slots[i] = slots[len(slots)-1]
			podSlots[super] = slots[:len(slots)-1]
		}
		return sw
	}
	for i := 0; i+1 < len(stubs); i += 2 {
		a, c := stubs[i], stubs[i+1]
		if a == c {
			continue // unrepaired self pair: drop the link (negligible, see tests)
		}
		sa, sc := claim(a), claim(c)
		if sa == sc {
			continue
		}
		b.AddLink(sa, sc, topo.TagRandom)
	}

	ts.Net = b.Build()
	return ts, nil
}
