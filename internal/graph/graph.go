// Package graph provides the generic graph substrate used by every topology
// in this repository: compact undirected adjacency structures, breadth-first
// shortest paths, Dijkstra, Yen's k-shortest-paths, max-flow, connectivity
// checks, and a random graph builder for arbitrary degree sequences (the
// Jellyfish construction).
//
// Graphs are node-indexed with dense integer IDs in [0, N). Parallel edges
// are permitted (they arise naturally in super-node constructions); self
// loops are not.
package graph

import (
	"fmt"
	"slices"
)

// Half is one endpoint's view of an edge: the peer node and the edge index.
type Half struct {
	Peer int32 // node on the other side
	Edge int32 // index into the graph's edge list
}

// Edge is an undirected edge between nodes A and B.
type Edge struct {
	A, B int32
}

// Other returns the endpoint of e that is not x.
func (e Edge) Other(x int32) int32 {
	if e.A == x {
		return e.B
	}
	return e.A
}

// Graph is an undirected multigraph with dense node IDs, sized by
// NewWithDegrees or Reset.
type Graph struct {
	adj   [][]Half
	edges []Edge
}

// NewWithDegrees returns a graph with len(degree) isolated nodes whose
// adjacency lists are carved from one allocation, node v's with room for
// degree[v] entries, so a builder that knows its degrees up front adds edges
// without growing a list. Each list's capacity ends where the next begins:
// an append past the stated degree moves that list to its own storage.
func NewWithDegrees(degree []int) *Graph {
	total := 0
	for _, d := range degree {
		total += d
	}
	slab := make([]Half, total)
	g := &Graph{adj: make([][]Half, len(degree)), edges: make([]Edge, 0, total/2)}
	at := 0
	for v, d := range degree {
		g.adj[v] = slab[at : at : at+d]
		at += d
	}
	return g
}

// Reset returns g to n isolated nodes, keeping the adjacency and edge
// storage so a graph rebuilt with a recurring shape (the pooled FPTAS
// solver re-aggregates a same-sized switch graph every solve) stops
// allocating once warm.
func (g *Graph) Reset(n int) {
	if cap(g.adj) < n {
		g.adj = make([][]Half, n)
	} else {
		g.adj = g.adj[:n]
	}
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	g.edges = g.edges[:0]
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the edge list. The caller must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns edge i.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// AddEdge inserts an undirected edge between a and b and returns its index.
// It panics on self loops or out-of-range nodes; topology builders are
// expected to be correct by construction and a silent error return would
// hide wiring bugs.
func (g *Graph) AddEdge(a, b int) int {
	if a == b {
		//flatlint:ignore nopanic documented construction invariant: a silent error return would hide wiring bugs
		panic(fmt.Sprintf("graph: self loop at node %d", a))
	}
	if a < 0 || b < 0 || a >= len(g.adj) || b >= len(g.adj) {
		//flatlint:ignore nopanic documented construction invariant: a silent error return would hide wiring bugs
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", a, b, len(g.adj)))
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{int32(a), int32(b)})
	g.adj[a] = append(g.adj[a], Half{Peer: int32(b), Edge: int32(id)})
	g.adj[b] = append(g.adj[b], Half{Peer: int32(a), Edge: int32(id)})
	return id
}

// Neighbors returns the adjacency list of node v (peers with edge indices).
// The caller must not modify it.
func (g *Graph) Neighbors(v int) []Half { return g.adj[v] }

// HasEdge reports whether at least one edge connects a and b.
func (g *Graph) HasEdge(a, b int) bool {
	// Scan the smaller adjacency list.
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, h := range g.adj[a] {
		if h.Peer == int32(b) {
			return true
		}
	}
	return false
}

// BFS computes hop distances from src to every node. Unreachable nodes get
// distance -1. The result slice has length N().
func (g *Graph) BFS(src int) []int32 {
	dist := make([]int32, len(g.adj))
	g.BFSInto(src, dist, make([]int32, len(g.adj)))
	return dist
}

// BFSInto is an allocation-free BFS: dist and queue must have length N().
// On return dist holds hop counts (-1 if unreachable).
func (g *Graph) BFSInto(src int, dist, queue []int32) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue[0] = int32(src)
	head, tail := 0, 1
	for head < tail {
		v := queue[head]
		head++
		dv := dist[v]
		for _, h := range g.adj[v] {
			if dist[h.Peer] < 0 {
				dist[h.Peer] = dv + 1
				queue[tail] = h.Peer
				tail++
			}
		}
	}
}

// Components labels every node with its connected component: label[v] is
// v's component, numbered from 0 in order of each component's lowest node,
// and an isolated node is a component of its own. It returns the labels and
// the number of components.
func (g *Graph) Components() (label []int32, count int) {
	return LabelComponents(len(g.adj), len(g.edges), func(i int) (int, int) {
		return int(g.edges[i].A), int(g.edges[i].B)
	})
}

// LabelComponents labels the connected components of the graph on nodes
// [0, n) whose m edges edge(i) returns, with the numbering of
// Graph.Components: from 0 in order of each component's lowest node, an
// isolated node a component of its own. It needs no adjacency lists, so a
// caller holding only an edge list (a network's links) labels it directly.
// The labels are built in place over a union-find forest in which every
// component's root is its lowest node.
func LabelComponents(n, m int, edge func(i int) (a, b int)) (label []int32, count int) {
	label = make([]int32, n) // parent pointers, then labels
	for v := range label {
		label[v] = int32(v)
	}
	root := func(v int32) int32 {
		for label[v] != v {
			label[v] = label[label[v]] // path halving keeps label[v] <= v
			v = label[v]
		}
		return v
	}
	for i := range m {
		a, b := edge(i)
		ra, rb := root(int32(a)), root(int32(b))
		if ra > rb {
			ra, rb = rb, ra
		}
		label[rb] = ra
	}
	// Every parent sorts before its child, so one ascending pass meets each
	// root before its descendants: a root opens the next label, and any
	// other node takes its parent's, which is final by then.
	for v := range label {
		if p := label[v]; p == int32(v) {
			label[v] = int32(count)
			count++
		} else {
			label[v] = label[p]
		}
	}
	return label, count
}

// Connected reports whether all nodes with at least one incident edge form
// a single connected component. Isolated nodes are ignored so that
// switch-only reachability checks are not confused by, e.g., spare nodes
// with zero configured ports.
func (g *Graph) Connected() bool {
	label, _ := g.Components()
	first := int32(-1)
	for v, l := range label {
		if len(g.adj[v]) == 0 {
			continue
		}
		if first < 0 {
			first = l
		} else if l != first {
			return false
		}
	}
	return true
}

// SortAdjacency orders every adjacency list by (peer, edge). Builders call
// it to make iteration order — and thus every downstream deterministic
// algorithm — independent of construction order. Each list is sorted as
// packed peer<<32|edge words (both are non-negative, so the unsigned order
// is the pair order): an ordered sort with no comparison callback.
func (g *Graph) SortAdjacency() {
	var buf [64]uint64 // covers switch radices up to 64 without a heap scratch
	keys := buf[:0]
	for _, l := range g.adj {
		if len(l) < 2 {
			continue
		}
		keys = keys[:0]
		for _, h := range l {
			keys = append(keys, uint64(uint32(h.Peer))<<32|uint64(uint32(h.Edge)))
		}
		slices.Sort(keys)
		for i, k := range keys {
			l[i] = Half{Peer: int32(k >> 32), Edge: int32(uint32(k))}
		}
	}
}
