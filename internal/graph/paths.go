package graph

import (
	"math"
)

// Path is a node sequence from source to destination (inclusive).
type Path struct {
	Nodes []int32
	Cost  float64
}

// Len returns the hop count of the path (edges, not nodes).
func (p Path) Len() int { return len(p.Nodes) - 1 }

func (g *Graph) extractPath(src, dst int, cost float64, prev []int32) Path {
	hops := 0
	for v := int32(dst); v != int32(src); hops++ {
		v = g.edges[prev[v]].Other(v)
	}
	nodes := make([]int32, hops+1)
	nodes[0] = int32(src)
	for v, i := int32(dst), hops; v != int32(src); i-- {
		nodes[i] = v
		v = g.edges[prev[v]].Other(v)
	}
	return Path{Nodes: nodes, Cost: cost}
}

// candidate is a Yen spur path awaiting selection. seq is the insertion
// counter: among equal costs the earliest-generated candidate wins, which
// both matches the pre-heap linear-scan behaviour and keeps the output a
// deterministic function of the graph.
type candidate struct {
	cost  float64
	seq   int32
	nodes []int32
}

// KSPSolver computes k-shortest paths with reusable scratch: one Dijkstra
// Workspace, dense ban vectors for Yen's spur machinery, a candidate
// min-heap (replacing an O(k) linear scan per selection), and a
// path-signature set (replacing O(paths²) sequence comparisons). It is not
// safe for concurrent use; allocate one per goroutine.
type KSPSolver struct {
	g          *Graph
	ws         *Workspace
	bannedEdge []bool  // len M, Yen spur edge bans
	banList    []int32 // edges currently banned, for O(bans) reset
	bannedNode []bool  // len N, Yen root-node bans
	cand       []candidate
	seen       map[string]bool
	sigBuf     []byte
	seq        int32
}

// NewKSPSolver returns a solver sized for g.
func (g *Graph) NewKSPSolver() *KSPSolver {
	return &KSPSolver{
		g:          g,
		ws:         g.NewWorkspace(),
		bannedEdge: make([]bool, g.M()),
		bannedNode: make([]bool, g.N()),
		seen:       make(map[string]bool),
	}
}

// sigOf renders a node sequence into the solver's signature buffer. The
// map operations below convert it with string(...) in the index expression,
// which Go performs without allocating on lookup.
func (s *KSPSolver) sigOf(nodes []int32) []byte {
	buf := s.sigBuf[:0]
	for _, v := range nodes {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	s.sigBuf = buf
	return buf
}

// KShortestPaths returns up to k loopless shortest paths from src to dst
// in non-decreasing cost order.
func (s *KSPSolver) KShortestPaths(src, dst, k int, length []float64) []Path {
	if k <= 0 {
		return nil
	}
	first, ok := s.ws.ShortestPath(src, dst, length)
	if !ok {
		return nil
	}
	g := s.g
	result := []Path{first}
	s.cand = s.cand[:0]
	s.seq = 0
	clear(s.seen)
	s.seen[string(s.sigOf(first.Nodes))] = true

	for len(result) < k {
		last := result[len(result)-1]
		// Cost of the first i edges of last, via the cheapest parallel edge
		// per hop — computed once per outer iteration instead of per spur.
		prefix := make([]float64, len(last.Nodes))
		for i := 1; i < len(last.Nodes); i++ {
			prefix[i] = prefix[i-1] + g.minEdgeLen(last.Nodes[i-1], last.Nodes[i], length)
		}
		// Each node on the previous path except the terminal is a potential
		// spur node.
		for spurIdx := 0; spurIdx < len(last.Nodes)-1; spurIdx++ {
			spur := last.Nodes[spurIdx]
			rootNodes := last.Nodes[:spurIdx+1]
			// Ban edges that would recreate any already-found path sharing
			// this root.
			for _, p := range result {
				if len(p.Nodes) > spurIdx+1 && sameNodes(p.Nodes[:spurIdx+1], rootNodes) {
					a, b := p.Nodes[spurIdx], p.Nodes[spurIdx+1]
					for _, h := range g.adj[a] {
						if h.Peer == b && !s.bannedEdge[h.Edge] {
							s.bannedEdge[h.Edge] = true
							s.banList = append(s.banList, h.Edge)
						}
					}
				}
			}
			// Ban root nodes (except the spur) to keep paths loopless.
			for _, v := range rootNodes[:len(rootNodes)-1] {
				s.bannedNode[v] = true
			}
			s.ws.DijkstraBanned(int(spur), length, s.bannedEdge, s.bannedNode)
			if !math.IsInf(s.ws.Dist[dst], 1) {
				spurPath := g.extractPath(int(spur), dst, s.ws.Dist[dst], s.ws.Prev)
				total := make([]int32, 0, spurIdx+len(spurPath.Nodes))
				total = append(total, rootNodes...)
				total = append(total, spurPath.Nodes[1:]...)
				if sig := s.sigOf(total); !s.seen[string(sig)] {
					s.seen[string(sig)] = true
					s.pushCand(candidate{cost: spurPath.Cost + prefix[spurIdx], seq: s.seq, nodes: total})
					s.seq++
				}
			}
			for _, v := range rootNodes[:len(rootNodes)-1] {
				s.bannedNode[v] = false
			}
			for _, e := range s.banList {
				s.bannedEdge[e] = false
			}
			s.banList = s.banList[:0]
		}
		if len(s.cand) == 0 {
			break
		}
		best := s.popCand()
		result = append(result, Path{Nodes: best.nodes, Cost: best.cost})
	}
	return result
}

// candLess orders candidates by (cost, insertion order).
func candLess(a, b candidate) bool {
	if a.cost != b.cost { //flatlint:ignore floatcmp exact equality picks the insertion-order tie-break branch; either branch is correct
		return a.cost < b.cost
	}
	return a.seq < b.seq
}

func (s *KSPSolver) pushCand(c candidate) {
	s.cand = append(s.cand, c)
	i := len(s.cand) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !candLess(s.cand[i], s.cand[parent]) {
			break
		}
		s.cand[i], s.cand[parent] = s.cand[parent], s.cand[i]
		i = parent
	}
}

func (s *KSPSolver) popCand() candidate {
	top := s.cand[0]
	n := len(s.cand) - 1
	s.cand[0] = s.cand[n]
	s.cand[n] = candidate{} // drop the nodes reference
	s.cand = s.cand[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && candLess(s.cand[c+1], s.cand[c]) {
			c++
		}
		if !candLess(s.cand[c], s.cand[i]) {
			break
		}
		s.cand[i], s.cand[c] = s.cand[c], s.cand[i]
		i = c
	}
	return top
}

func (g *Graph) minEdgeLen(a, b int32, length []float64) float64 {
	best := math.Inf(1)
	for _, h := range g.adj[a] {
		if h.Peer == b && length[h.Edge] < best {
			best = length[h.Edge]
		}
	}
	return best
}

func sameNodes(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// UnitLengths returns a length vector assigning 1.0 to every edge, for
// hop-count shortest paths through the weighted machinery.
func (g *Graph) UnitLengths() []float64 {
	l := make([]float64, g.M())
	for i := range l {
		l[i] = 1
	}
	return l
}
