package graph

import (
	"fmt"
	"slices"
)

// RandomDegree builds a simple (no self loops, no parallel edges) random
// graph on len(degrees) nodes where node v receives at most degrees[v]
// incident edges, leaving as few ports unused as possible. This is the
// Jellyfish construction [Singla et al., NSDI'12]: repeatedly join random
// non-adjacent node pairs with free ports; when the process gets stuck with
// free ports remaining, break an existing edge (u,w) and reconnect through a
// node x that still has two or more free ports (x-u, x-w), which strictly
// consumes free ports while preserving degrees elsewhere.
//
// The result is connected with overwhelming probability for the degree
// sequences used in data-center topologies; callers that require
// connectivity should check Connected() and retry with a different seed
// (BuildConnected does this).
func RandomDegree(degrees []int, rng *RNG) (*Graph, error) {
	n := len(degrees)
	for v, d := range degrees {
		if d < 0 {
			return nil, fmt.Errorf("graph: negative degree %d at node %d", d, v)
		}
	}
	// No node ever exceeds its degree, so the carved lists never move.
	g := NewWithDegrees(degrees)
	free := slices.Clone(degrees)
	// Active list: the nodes with free ports, ascending. A node leaves the
	// moment its last port is consumed, so the list never holds a spent
	// node and is touched only then — not rescanned after every edge.
	active := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if free[v] > 0 {
			active = append(active, v)
		}
	}
	compact := func() {
		w := 0
		for _, v := range active {
			if free[v] > 0 {
				active[w] = v
				w++
			}
		}
		active = active[:w]
	}

	stuck := 0
	for len(active) >= 2 || (len(active) == 1 && free[active[0]] >= 2) {
		// Try random pairs a bounded number of times before declaring the
		// phase stuck.
		paired := false
		for try := 0; try < 32 && len(active) >= 2; try++ {
			i := rng.Intn(len(active))
			j := rng.Intn(len(active))
			if i == j {
				continue
			}
			a, b := active[i], active[j]
			if g.HasEdge(a, b) {
				continue
			}
			g.AddEdge(a, b)
			free[a]--
			free[b]--
			// Retire the higher position first so the lower stays valid.
			for _, at := range [2]int{max(i, j), min(i, j)} {
				if free[active[at]] == 0 {
					active = slices.Delete(active, at, at+1)
				}
			}
			paired = true
			break
		}
		if paired {
			stuck = 0
			continue
		}
		// Stuck: every remaining free-port pair is already adjacent (or a
		// single node remains). Do a Jellyfish edge swap: pick x with
		// free[x] >= 2, a random existing edge (u,w) with u,w not adjacent
		// to x, replace it with (x,u) and (x,w).
		x := -1
		for _, v := range active {
			if free[v] >= 2 {
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
			// existing edge (u,w) not touching x.
			for try := 0; try < 256; try++ {
				e := g.Edge(rng.Intn(g.M()))
				u, w := int(e.A), int(e.B)
				if u == x || w == x || g.HasEdge(x, u) || g.HasEdge(x, w) {
					continue
				}
				g.removeEdgeBetween(u, w)
				g.AddEdge(x, u)
				g.AddEdge(x, w)
				free[x] -= 2
				swapped = true
				break
			}
		} else if len(active) >= 2 {
			// Swap type 2: the remaining free ports sit one-per-node on
			// mutually adjacent nodes; break an edge (u,w) disjoint from
			// two of them (x, y) and reconnect x-u, y-w.
			x, y := active[0], active[1]
			for try := 0; try < 256 && !swapped; try++ {
				e := g.Edge(rng.Intn(g.M()))
				for _, or := range [2][2]int{{int(e.A), int(e.B)}, {int(e.B), int(e.A)}} {
					u, w := or[0], or[1]
					if u == x || u == y || w == x || w == y ||
						g.HasEdge(x, u) || g.HasEdge(y, w) {
						continue
					}
					g.removeEdgeBetween(u, w)
					g.AddEdge(x, u)
					g.AddEdge(y, w)
					free[x]--
					free[y]--
					swapped = true
					break
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
		compact() // swaps are rare: a rescan here is off the per-edge path
	}
	g.SortAdjacency()
	return g, nil
}

// BuildConnected calls RandomDegree with successive seeds derived from rng
// until the result is connected, trying at most 32 times.
func BuildConnected(degrees []int, rng *RNG) (*Graph, error) {
	for try := 0; try < 32; try++ {
		g, err := RandomDegree(degrees, NewRNG(rng.Uint64()))
		if err != nil {
			return nil, err
		}
		if g.Connected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: could not build a connected random graph in 32 attempts")
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
		//flatlint:ignore nopanic internal invariant: callers pass endpoints read from the adjacency lists
		panic(fmt.Sprintf("graph: removeEdgeBetween(%d,%d): no such edge", u, w))
	}
	g.removeEdgeAt(id)
}

// removeEdgeAt deletes the edge at index id. Edge indices of other edges
// are preserved by swapping the last edge into the vacated slot, so callers
// must not hold edge indices across a removal.
func (g *Graph) removeEdgeAt(id int32) {
	e := g.edges[id]
	g.dropHalf(int(e.A), id)
	g.dropHalf(int(e.B), id)
	last := int32(len(g.edges) - 1)
	if id != last {
		moved := g.edges[last]
		g.edges[id] = moved
		g.retargetHalf(int(moved.A), last, id)
		g.retargetHalf(int(moved.B), last, id)
	}
	g.edges = g.edges[:last]
}

func (g *Graph) dropHalf(v int, edge int32) {
	l := g.adj[v]
	for i, h := range l {
		if h.Edge == edge {
			l[i] = l[len(l)-1]
			g.adj[v] = l[:len(l)-1]
			return
		}
	}
	//flatlint:ignore nopanic internal invariant: the half-edge was just located via the edge table
	panic("graph: dropHalf: edge not found")
}

func (g *Graph) retargetHalf(v int, from, to int32) {
	l := g.adj[v]
	for i, h := range l {
		if h.Edge == from {
			l[i].Edge = to
			return
		}
	}
	//flatlint:ignore nopanic internal invariant: the half-edge was just located via the edge table
	panic("graph: retargetHalf: edge not found")
}
