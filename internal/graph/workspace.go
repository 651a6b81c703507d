package graph

import "math"

// Workspace holds all scratch state a shortest-path computation needs:
// distance and predecessor vectors plus two queues with decrease-key, an
// index-addressable d-ary heap (Dijkstra*) and a radix heap (DeltaStep*,
// radix.go). Allocate one per goroutine (it is not safe for concurrent
// use) and reuse it across calls; after the first call on a given graph
// every subsequent run is allocation-free. This is the kernel under the
// FPTAS throughput solver, which runs thousands of single-source solves
// per instance.
//
// Ties in either queue's order are broken by node id, so the pop sequence
// — and therefore the shortest-path tree in Prev — is a deterministic
// function of (graph, lengths) alone, not of queue internals or insertion
// history.
type Workspace struct {
	g *Graph
	// Dist and Prev hold the result of the most recent Dijkstra call:
	// Dist[v] is the distance from the source (+Inf when unreachable) and
	// Prev[v] the edge index used to reach v (-1 at the source and at
	// unreachable nodes). Callers must treat both as read-only.
	Dist []float64
	Prev []int32

	key  []float64 // distance slice ordering the heap during a run
	heap []int32   // node ids, 4-ary min-heap by (key, id)
	pos  []int32   // node -> heap slot, -1 when absent

	tmark  []uint64 // target marks for DijkstraTargets, epoch-stamped
	tepoch uint64   // current target epoch; bumping it clears all marks

	// Radix-heap queue (radix.go). Invariant between runs: no bucket
	// occupied (occ = 0, zeroN = 0, zero all clear), bnum[v] = -1 everywhere.
	bkt    [64][]int32 // bkt[i], i ≥ 1: queued ids whose key first differs from the minimum at bit i-1
	occ    uint64      // bit i set iff bkt[i] is non-empty
	zero   []uint64    // bucket 0 (keys equal to the minimum) as a node-id bitset
	zeroN  int         // population of zero
	zeroLo int         // no word of zero below this index is non-empty
	bnum   []int8      // node -> bucket number, -1 when not queued
	bpos   []int32     // node -> slot within bkt[bnum], for bnum ≥ 1
}

// NewWorkspace returns a Workspace sized for g. The graph must not gain
// nodes while the workspace is in use.
func (g *Graph) NewWorkspace() *Workspace {
	w := &Workspace{}
	w.Rebind(g)
	return w
}

// Rebind retargets the workspace at g, reusing the existing backing
// arrays whenever they have the capacity. This is what makes pooling
// workspaces across solver invocations worthwhile: each invocation
// aggregates its own switch-level graph, but the sizes recur, so a
// rebound workspace allocates nothing. Both queue invariants (empty heap
// with pos[v] = -1 everywhere; empty radix buckets with bnum[v] = -1
// everywhere) are re-established here because the node count may change.
func (w *Workspace) Rebind(g *Graph) {
	n := g.N()
	w.g = g
	if cap(w.Dist) < n {
		w.Dist = make([]float64, n)
		w.Prev = make([]int32, n)
		w.pos = make([]int32, n)
		w.heap = make([]int32, 0, n)
		w.bnum = make([]int8, n)
		w.bpos = make([]int32, n)
		w.zero = make([]uint64, (n+63)/64)
	} else {
		w.Dist = w.Dist[:n]
		w.Prev = w.Prev[:n]
		w.pos = w.pos[:n]
		w.bnum = w.bnum[:n]
		w.bpos = w.bpos[:n]
		w.zero = w.zero[:(n+63)/64]
	}
	for i := range w.pos {
		w.pos[i] = -1
		w.bnum[i] = -1
	}
	w.heap = w.heap[:0]
	w.key = nil
	w.zeroLo = 0
}

// Dijkstra computes shortest distances from src under per-edge lengths
// length[e] (which must be non-negative) into w.Dist and w.Prev.
func (w *Workspace) Dijkstra(src int, length []float64) {
	w.run(int32(src), length, w.Dist, w.Prev, nil, nil, nil)
}

// DijkstraTargets is the batched oracle under the FPTAS throughput solver:
// one source-grouped pass that serves every commodity of a source at once.
// It runs Dijkstra from src but stops as soon as all the given target nodes
// have been settled, instead of exhausting the whole graph. On return,
// Dist/Prev are exact for every settled node — in particular for every
// reachable target and for every node on a shortest path to one (strictly
// positive lengths mean path predecessors settle before the target) — so
// walking Prev from a target yields the same tree edges a full Dijkstra
// would. Unreachable targets are reported at +Inf: the search exhausts
// their component before it can stop, which is exactly the full-run
// behavior. Unsettled nodes hold only tentative distances (or +Inf if
// never reached); callers must not read them.
//
// Because the settled pop sequence of the early-stopped run is a prefix of
// the full run's pop sequence (same heap, same deterministic tie-break),
// results for targets are bit-identical to Dijkstra's — callers trade no
// reproducibility for the saved work.
//
//flatlint:ignore testonly FuzzSSSPKernelsAgree checks the workspace state an early exit leaves, which no full run can
func (w *Workspace) DijkstraTargets(src int, length []float64, targets []int32) {
	w.run(int32(src), length, w.Dist, w.Prev, nil, nil, targets)
}

// DijkstraBanned is Dijkstra with Yen's spur machinery: bannedEdge (len M)
// marks edges that must not be used and bannedNode (len N) nodes that must
// not be traversed. Either may be nil.
func (w *Workspace) DijkstraBanned(src int, length []float64, bannedEdge, bannedNode []bool) {
	w.run(int32(src), length, w.Dist, w.Prev, bannedEdge, bannedNode, nil)
}

// ShortestPath returns one shortest path from src to dst under the given
// edge lengths, or ok=false if dst is unreachable. With deterministic
// tie-breaking the returned path depends only on the graph and lengths.
func (w *Workspace) ShortestPath(src, dst int, length []float64) (Path, bool) {
	w.Dijkstra(src, length)
	if math.IsInf(w.Dist[dst], 1) {
		return Path{}, false
	}
	return w.g.extractPath(src, dst, w.Dist[dst], w.Prev), true
}

// run is the kernel: a textbook Dijkstra over an indexed 4-ary heap.
// Every node enters the heap at most once (improvements are decrease-key
// sift-ups rather than lazy re-insertions), so the heap slice never grows
// past N and the whole call allocates nothing after the first targeted
// call sizes the mark vector. dist and prev must have length N; prev is
// always filled (the write is one int32 store per edge relaxation, cheaper
// than a branch). A non-nil targets slice ends the run once every listed
// node has been popped; the heap is drained (pos reset) so the workspace
// invariant survives the early exit.
// prepare resets dist/prev for a fresh run and epoch-stamps the target
// marks, counting duplicates once. It returns the (possibly nil-ed) target
// slice and the number of distinct targets still to settle; an empty target
// list degenerates to a full run. Shared by the heap and radix kernels so
// their early-exit accounting cannot drift apart.
func (w *Workspace) prepare(dist []float64, prev []int32, targets []int32) ([]int32, int) {
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	remaining := 0
	if targets != nil {
		if len(w.tmark) < len(dist) {
			w.tmark = make([]uint64, len(dist))
		}
		w.tepoch++
		for _, t := range targets {
			if w.tmark[t] != w.tepoch {
				w.tmark[t] = w.tepoch
				remaining++
			}
		}
		if remaining == 0 {
			targets = nil
		}
	}
	return targets, remaining
}

func (w *Workspace) run(src int32, length []float64, dist []float64, prev []int32, bannedEdge, bannedNode []bool, targets []int32) {
	targets, remaining := w.prepare(dist, prev, targets)
	w.key = dist
	w.heap = w.heap[:0]
	if bannedNode != nil && bannedNode[src] {
		return
	}
	dist[src] = 0
	w.push(src)
	for len(w.heap) > 0 {
		v := w.pop()
		if targets != nil && w.tmark[v] == w.tepoch {
			remaining--
			if remaining == 0 {
				for _, u := range w.heap {
					w.pos[u] = -1
				}
				w.heap = w.heap[:0]
				return
			}
		}
		dv := dist[v]
		for _, h := range w.g.adj[v] {
			if bannedEdge != nil && bannedEdge[h.Edge] {
				continue
			}
			if bannedNode != nil && bannedNode[h.Peer] {
				continue
			}
			nd := dv + length[h.Edge]
			if nd < dist[h.Peer] {
				dist[h.Peer] = nd
				prev[h.Peer] = h.Edge
				if p := w.pos[h.Peer]; p >= 0 {
					w.siftUp(int(p)) // decrease-key
				} else {
					w.push(h.Peer)
				}
			}
		}
	}
}

// The heap invariant after every exported call: empty, with pos[v] = -1
// for all v (every pushed node gets popped), so runs never need to reset
// pos. The arity-4 layout trades slightly more comparisons per sift-down
// for half the tree depth — a win when decrease-key sift-ups dominate, as
// they do on the dense relaxation pattern of the FPTAS length updates.

const heapArity = 4

// less orders the heap by (distance, node id); the id tie-break is what
// makes the pop order, and hence the shortest-path tree, deterministic.
func (w *Workspace) less(a, b int32) bool {
	if w.key[a] != w.key[b] { //flatlint:ignore floatcmp exact equality picks the id tie-break branch; either branch is correct
		return w.key[a] < w.key[b]
	}
	return a < b
}

func (w *Workspace) push(v int32) {
	w.pos[v] = int32(len(w.heap))
	w.heap = append(w.heap, v)
	w.siftUp(len(w.heap) - 1)
}

func (w *Workspace) pop() int32 {
	root := w.heap[0]
	w.pos[root] = -1
	last := len(w.heap) - 1
	if last > 0 {
		v := w.heap[last]
		w.heap[0] = v
		w.pos[v] = 0
	}
	w.heap = w.heap[:last]
	if last > 1 {
		w.siftDown(0)
	}
	return root
}

func (w *Workspace) siftUp(i int) {
	v := w.heap[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		p := w.heap[parent]
		if !w.less(v, p) {
			break
		}
		w.heap[i] = p
		w.pos[p] = int32(i)
		i = parent
	}
	w.heap[i] = v
	w.pos[v] = int32(i)
}

func (w *Workspace) siftDown(i int) {
	n := len(w.heap)
	v := w.heap[i]
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		best := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if w.less(w.heap[c], w.heap[best]) {
				best = c
			}
		}
		if !w.less(w.heap[best], v) {
			break
		}
		w.heap[i] = w.heap[best]
		w.pos[w.heap[i]] = int32(i)
		i = best
	}
	w.heap[i] = v
	w.pos[v] = int32(i)
}
