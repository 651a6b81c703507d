// Package fattree builds the canonical three-layer fat-tree topology of
// Al-Fares et al. (SIGCOMM'08), the Clos baseline the flat-tree paper
// evaluates against and the equipment template every other topology in this
// repository reuses: k pods of k/2 edge and k/2 aggregation switches,
// (k/2)^2 core switches, k-port switches throughout, and k^3/4 servers.
package fattree

import (
	"fmt"

	"flattree/internal/topo"
)

// FatTree is a constructed fat-tree with index tables into its network.
type FatTree struct {
	K   int
	Net *topo.Network

	// Cores[c] is the node ID of core switch c, c in [0, (k/2)^2).
	Cores []int
	// Edges[p][j] / Aggs[p][i] are node IDs of pod p's switches.
	Edges [][]int
	Aggs  [][]int
	// ServerIDs[s] is the node ID of global server s, ordered so that
	// consecutive indices share edge switches and pods (the paper's
	// "continuous" locality placement walks this order).
	ServerIDs []int
}

// New constructs a fat-tree with parameter k (even, >= 4).
func New(k int) (*FatTree, error) {
	if k < 4 || k%2 != 0 {
		return nil, fmt.Errorf("fattree: k must be even and >= 4, got %d", k)
	}
	half := k / 2
	b := topo.NewBuilder(fmt.Sprintf("fattree(k=%d)", k))
	// 5k²/4 switches and k³/4 servers; k³/4 links in each of three layers.
	b.Reserve(5*k*k/4+k*k*k/4, 3*k*k*k/4)
	f := &FatTree{K: k}

	// Core switches.
	f.Cores = make([]int, half*half)
	for c := range f.Cores {
		f.Cores[c] = b.AddNode(topo.CoreSwitch, -1, c, k)
	}
	// Pod switches.
	f.Edges = make([][]int, k)
	f.Aggs = make([][]int, k)
	podSwitches := make([]int, k*k)
	for p := 0; p < k; p++ {
		f.Aggs[p] = podSwitches[p*k : p*k+half : p*k+half]
		f.Edges[p] = podSwitches[p*k+half : (p+1)*k : (p+1)*k]
		for i := 0; i < half; i++ {
			f.Aggs[p][i] = b.AddNode(topo.AggSwitch, p, i, k)
		}
		for j := 0; j < half; j++ {
			f.Edges[p][j] = b.AddNode(topo.EdgeSwitch, p, j, k)
		}
	}
	// Servers, ordered pod-major then edge-major for locality placement.
	f.ServerIDs = make([]int, 0, k*half*half)
	for p := 0; p < k; p++ {
		for j := 0; j < half; j++ {
			for s := 0; s < half; s++ {
				idx := len(f.ServerIDs)
				sv := b.AddNode(topo.Server, p, idx, 1)
				f.ServerIDs = append(f.ServerIDs, sv)
				b.AddLink(sv, f.Edges[p][j], topo.TagClos)
			}
		}
	}
	// Edge-aggregation full bipartite mesh within each pod.
	for p := 0; p < k; p++ {
		for j := 0; j < half; j++ {
			for i := 0; i < half; i++ {
				b.AddLink(f.Edges[p][j], f.Aggs[p][i], topo.TagClos)
			}
		}
	}
	// Aggregation-core: agg switch i in every pod connects to core group
	// [i*k/2, (i+1)*k/2).
	for p := 0; p < k; p++ {
		for i := 0; i < half; i++ {
			for u := 0; u < half; u++ {
				b.AddLink(f.Aggs[p][i], f.Cores[i*half+u], topo.TagClos)
			}
		}
	}
	f.Net = b.Build()
	return f, nil
}
