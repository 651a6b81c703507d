package graph

import "fmt"

// HopBatch is the number of sources one HopGraph.Sweep carries: one bit of
// a machine word each.
const HopBatch = 64

// HopGraph is the path-length kernel's view of a graph: the subgraph
// induced on a kept node set (the switches of a network — its degree-1
// servers, most of the nodes, never relay and are left out), renumbered
// densely and stored as one CSR, so a search touches two flat int32 arrays
// instead of chasing a [][]Half and skipping an edge id per entry.
type HopGraph struct {
	off, peer []int32 // dense id v's neighbours are peer[off[v]:off[v+1]]
	id        []int32 // node -> dense id, -1 when not kept
	node      []int32 // dense id -> node
	// Sweep's buffers, reused by every sweep: the seen, cur and next words
	// of each dense id, then room for the frontier and touched lists.
	words []uint64
	lists []int32
}

// NewHopGraph builds the HopGraph of the n-node graph whose m edges edge(i)
// returns, induced on the nodes keep accepts. Parallel edges stay parallel;
// an edge with a dropped endpoint is dropped. The edge list is read twice,
// once to count each kept node's neighbours and once to fill them in, so a
// caller holding only an edge list (a network's links) needs no adjacency
// lists of its own. A node's neighbours come in edge-list order.
func NewHopGraph(n int, keep func(v int) bool, m int, edge func(i int) (a, b int)) *HopGraph {
	h := &HopGraph{id: make([]int32, n)}
	kept := 0
	for v := range h.id {
		h.id[v] = -1
		if keep(v) {
			h.id[v] = int32(kept)
			kept++
		}
	}
	h.node = make([]int32, kept)
	for v, i := range h.id {
		if i >= 0 {
			h.node[i] = int32(v)
		}
	}
	// Dense id i's neighbours are counted in off[i+2]; after the prefix sum
	// off[i+1] is where they start, and the fill advances it to where they
	// end, which is where i+1's start.
	off := make([]int32, kept+2)
	for e := range m {
		a, b := edge(e)
		if ia, ib := h.id[a], h.id[b]; ia >= 0 && ib >= 0 {
			off[ia+2]++
			off[ib+2]++
		}
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	h.peer = make([]int32, off[kept+1])
	for e := range m {
		a, b := edge(e)
		if ia, ib := h.id[a], h.id[b]; ia >= 0 && ib >= 0 {
			h.peer[off[ia+1]] = ib
			off[ia+1]++
			h.peer[off[ib+1]] = ia
			off[ib+1]++
		}
	}
	h.off = off[:kept+1]
	h.words = make([]uint64, 3*kept)
	h.lists = make([]int32, 2*kept)
	return h
}

// Sweep runs one level-synchronous breadth-first search from up to HopBatch
// sources at once, source j travelling as bit j of a word per node, so one
// pass over an adjacency list advances every source whose frontier holds
// that node. It calls visit(level, node, fresh) once for each (level, node)
// at which some sources first arrive: fresh has bit j set when sources[j]
// is exactly level hops from node. Level 0 reports the sources themselves;
// a pair that is never reported is disconnected. Calls come in ascending
// level order and in no particular node order. Duplicate sources are
// independent bits. Sweeps reuse buffers held in h, so a HopGraph runs one
// sweep at a time.
func (h *HopGraph) Sweep(sources []int, visit func(level, node int, fresh uint64)) error {
	if len(sources) > HopBatch {
		return fmt.Errorf("graph: %d sources in one sweep, at most %d", len(sources), HopBatch)
	}
	n := len(h.node)
	clear(h.words)
	seen, cur, next := h.words[:n], h.words[n:2*n], h.words[2*n:]
	front, touched := h.lists[:0:n], h.lists[n:n]
	for j, s := range sources {
		if s < 0 || s >= len(h.id) || h.id[s] < 0 {
			return fmt.Errorf("graph: sweep source %d is not a kept node", s)
		}
		v := h.id[s]
		if cur[v] == 0 {
			front = append(front, v)
		}
		cur[v] |= 1 << uint(j)
	}
	for _, v := range front {
		seen[v] = cur[v]
		visit(0, int(h.node[v]), cur[v])
	}
	for level := 1; len(front) > 0; level++ {
		touched = touched[:0]
		for _, v := range front {
			m := cur[v]
			for _, u := range h.peer[h.off[v]:h.off[v+1]] {
				if next[u] == 0 {
					touched = append(touched, u)
				}
				next[u] |= m
			}
		}
		front = front[:0]
		for _, u := range touched {
			fresh := next[u] &^ seen[u]
			next[u] = 0
			if fresh == 0 {
				continue
			}
			seen[u] |= fresh
			cur[u] = fresh
			front = append(front, u)
			visit(level, int(h.node[u]), fresh)
		}
	}
	return nil
}
