// Package routing implements the route computation schemes of §2.6 of the
// flat-tree paper: ECMP-style all-shortest-path sets for Clos operation and
// k-shortest-paths (Yen) for the approximated random-graph modes. Because
// flat-tree maintains structure, routes are computed centrally from the
// known topology — "instead of learning routes, it is possible to have
// prior knowledge of the shortest paths and program the routing decisions
// via SDN" — which is exactly what these types provide to the control
// plane and the flow-level simulator.
package routing

import (
	"fmt"

	"flattree/internal/graph"
	"flattree/internal/topo"
)

// Scheme yields candidate paths between switch endpoints. Paths are node ID
// sequences over the network's switch-level graph, inclusive of endpoints.
type Scheme interface {
	// Paths returns candidate paths from src to dst (network switch IDs).
	// The result is never empty for connected pairs; implementations
	// return an error for disconnected or invalid pairs.
	Paths(src, dst int) ([]graph.Path, error)
	// Name identifies the scheme in tables and logs.
	Name() string
}

// switchGraph is a network's switch fabric (topo.Network.SwitchGraph) with
// the mappings between network node IDs and compact graph indices.
type switchGraph struct {
	g     graph.Graph
	toIdx []int32 // network node -> graph index (-1 for servers)
	toNet []int   // graph index -> network node
}

// fill points sg at nw's switch fabric.
func (sg *switchGraph) fill(nw *topo.Network) {
	sg.toNet = nw.Switches()
	sg.toIdx = nw.SwitchGraph(&sg.g, nil)
}

func (sg *switchGraph) resolve(v int) (int, error) {
	if v < 0 || v >= len(sg.toIdx) || sg.toIdx[v] < 0 {
		return 0, fmt.Errorf("routing: node %d is not a switch", v)
	}
	return int(sg.toIdx[v]), nil
}

// translate maps a graph-index path back to network node IDs.
func (sg *switchGraph) translate(p graph.Path) graph.Path {
	nodes := make([]int32, len(p.Nodes))
	for i, v := range p.Nodes {
		nodes[i] = int32(sg.toNet[v])
	}
	return graph.Path{Nodes: nodes, Cost: p.Cost}
}

// ECMP enumerates all shortest paths between switches, the path set ECMP
// hashing spreads flows over in a Clos fabric. Enumeration is capped to
// avoid combinatorial blowup on very symmetric fabrics.
type ECMP struct {
	sg       switchGraph
	maxPaths int
}

// NewECMP builds an ECMP scheme. maxPaths caps the enumerated path set per
// pair (0 means 64).
func NewECMP(nw *topo.Network, maxPaths int) *ECMP {
	if maxPaths <= 0 {
		maxPaths = 64
	}
	e := &ECMP{maxPaths: maxPaths}
	e.sg.fill(nw)
	return e
}

// Name implements Scheme.
func (e *ECMP) Name() string { return "ecmp" }

// Paths enumerates equal-cost shortest paths src->dst up to the cap.
func (e *ECMP) Paths(src, dst int) ([]graph.Path, error) {
	s, err := e.sg.resolve(src)
	if err != nil {
		return nil, err
	}
	d, err := e.sg.resolve(dst)
	if err != nil {
		return nil, err
	}
	if s == d {
		return []graph.Path{{Nodes: []int32{int32(src)}}}, nil
	}
	// BFS from the destination: dist[v] is v's hop count to d; shortest
	// paths step from v to any neighbor one hop closer.
	dist := e.sg.g.BFS(d)
	if dist[s] < 0 {
		return nil, fmt.Errorf("routing: %d and %d disconnected", src, dst)
	}
	var out []graph.Path
	var walk func(prefix []int32, v int)
	walk = func(prefix []int32, v int) {
		if len(out) >= e.maxPaths {
			return
		}
		if v == d {
			p := graph.Path{Nodes: append([]int32(nil), prefix...), Cost: float64(len(prefix) - 1)}
			out = append(out, e.sg.translate(p))
			return
		}
		for _, h := range e.sg.g.Neighbors(v) {
			if dist[h.Peer] == dist[v]-1 {
				walk(append(prefix, h.Peer), int(h.Peer))
			}
		}
	}
	walk([]int32{int32(s)}, s)
	return out, nil
}

// KSP computes k loopless shortest paths per pair, the paper's routing for
// approximated random graphs (citing Jellyfish). It keeps a reusable Yen
// solver (Dijkstra workspace, candidate heap, signature set), so a KSP
// instance is not safe for concurrent use; the flow simulators that drive
// it query paths from a single goroutine.
type KSP struct {
	sg     switchGraph
	solver *graph.KSPSolver
	k      int
	len    []float64
}

// NewKSP builds a k-shortest-paths scheme (hop-count metric).
func NewKSP(nw *topo.Network, k int) *KSP {
	if k <= 0 {
		k = 8
	}
	r := &KSP{k: k}
	r.sg.fill(nw)
	r.solver, r.len = r.sg.g.NewKSPSolver(), r.sg.g.UnitLengths()
	return r
}

// Name implements Scheme.
func (r *KSP) Name() string { return fmt.Sprintf("ksp%d", r.k) }

// Paths returns up to k loopless shortest paths.
func (r *KSP) Paths(src, dst int) ([]graph.Path, error) {
	s, err := r.sg.resolve(src)
	if err != nil {
		return nil, err
	}
	d, err := r.sg.resolve(dst)
	if err != nil {
		return nil, err
	}
	if s == d {
		return []graph.Path{{Nodes: []int32{int32(src)}}}, nil
	}
	paths := r.solver.KShortestPaths(s, d, r.k, r.len)
	if len(paths) == 0 {
		return nil, fmt.Errorf("routing: %d and %d disconnected", src, dst)
	}
	out := make([]graph.Path, len(paths))
	for i, p := range paths {
		out[i] = r.sg.translate(p)
	}
	return out, nil
}

// Table is a forwarding table: for each (switch, destination switch) the
// set of next-hop switch IDs on shortest paths. It is what the §2.6
// controller would install into SDN switches for Clos/ECMP operation.
type Table struct {
	sg   switchGraph
	next map[int64][]int32 // key: switchIdx<<32 | dstIdx
}

// BuildTable precomputes shortest-path next hops for all destination
// switches. Memory is O(switches^2) entries; intended for control-plane
// use at experiment scale.
func BuildTable(nw *topo.Network) *Table {
	t := &Table{next: make(map[int64][]int32)}
	t.sg.fill(nw)
	sg := &t.sg
	n := sg.g.N()
	dist := make([]int32, n)
	queue := make([]int32, n)
	for d := 0; d < n; d++ {
		sg.g.BFSInto(d, dist, queue)
		for v := 0; v < n; v++ {
			if v == d || dist[v] < 0 {
				continue
			}
			var hops []int32
			for _, h := range sg.g.Neighbors(v) {
				if dist[h.Peer] == dist[v]-1 {
					hops = append(hops, int32(sg.toNet[h.Peer]))
				}
			}
			t.next[int64(v)<<32|int64(d)] = hops
		}
	}
	return t
}

// NextHops returns the ECMP next-hop switch set from sw toward dst, both
// network switch IDs. An empty result means sw == dst or unreachable.
func (t *Table) NextHops(sw, dst int) []int32 {
	s, err := t.sg.resolve(sw)
	if err != nil {
		return nil
	}
	d, err := t.sg.resolve(dst)
	if err != nil {
		return nil
	}
	return t.next[int64(s)<<32|int64(d)]
}
