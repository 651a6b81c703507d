package graph

// MaxFlow is a Dinic max-flow workspace over a Graph with real-valued edge
// capacities: the flow leaves one source node and is absorbed at any number
// of drain nodes, each up to its own drain capacity (the arcs into an
// implicit super-sink). An undirected edge is a pair of arcs that are each
// other's residual, so pushing d one way frees d the other. Like Workspace,
// allocate one per goroutine and reuse it: after the first Run on a given
// graph size nothing allocates. This is the kernel under the throughput
// solver's exact path for single-hot-spot instances.
//
// All residual tests are exact (> 0): an augmentation pushes the smallest
// residual on its walk, and x − x is exactly 0 in floating point, so every
// augmentation removes an arc from the level graph and the usual Dinic bounds
// hold without a tolerance. Adjacency lists are scanned in order and ties
// never consult anything else, so the flow, not only its value, is a
// deterministic function of (graph, capacities, drains, source).
type MaxFlow struct {
	g *Graph
	// res[2e] is the residual capacity of edge e from its lower-numbered
	// endpoint to the higher, res[2e+1] the other way; both start at the
	// edge's capacity and their sum never changes.
	res       []float64
	want      []float64 // drain capacity per node, as passed to Run
	left      []float64 // drain capacity not yet used
	level     []int32   // BFS level in the residual graph, -1 when unreached or exhausted
	sinkLevel int32     // level of the implicit super-sink, -1 when unreached
	iter      []int32   // per node, the first adjacency slot not yet exhausted this phase
	queue     []int32
	pathArc   []int32 // arcs of the walk under construction
	pathNode  []int32 // pathNode[i] is the tail of pathArc[i]
}

// NewMaxFlow returns a MaxFlow sized for g. The graph must not change while
// the workspace is bound to it.
func (g *Graph) NewMaxFlow() *MaxFlow {
	f := &MaxFlow{}
	f.Rebind(g)
	return f
}

// Rebind retargets the workspace at g, reusing the backing arrays whenever
// they have the capacity.
func (f *MaxFlow) Rebind(g *Graph) {
	n, m := g.N(), g.M()
	f.g = g
	if cap(f.res) < 2*m {
		f.res = make([]float64, 2*m)
	} else {
		f.res = f.res[:2*m]
	}
	if cap(f.level) < n {
		f.want = make([]float64, n)
		f.left = make([]float64, n)
		f.level = make([]int32, n)
		f.iter = make([]int32, n)
		f.queue = make([]int32, 0, n)
		f.pathArc = make([]int32, 0, n)
		f.pathNode = make([]int32, 0, n)
	} else {
		f.want = f.want[:n]
		f.left = f.left[:n]
		f.level = f.level[:n]
		f.iter = f.iter[:n]
	}
}

// arc returns the arc that leaves v along h.
func arc(v int32, h Half) int32 {
	if v < h.Peer {
		return 2 * h.Edge
	}
	return 2*h.Edge + 1
}

// Run computes a maximum flow from src in which node v absorbs at most
// drain[v] and edge e carries at most capacity[e] (len M) in either
// direction, and returns its value. drain has length N; capacities and drains
// must be non-negative. Every call starts from the zero flow.
func (f *MaxFlow) Run(src int, capacity, drain []float64) float64 {
	for e, c := range capacity {
		f.res[2*e], f.res[2*e+1] = c, c
	}
	copy(f.want, drain)
	copy(f.left, drain)
	total := 0.0
	for f.levels(int32(src)) {
		total += f.blockingFlow(int32(src))
	}
	return total
}

// Absorbed returns the flow the last Run delivered to node v: exactly its
// drain capacity when the drain is saturated.
func (f *MaxFlow) Absorbed(v int) float64 { return f.want[v] - f.left[v] }

// Reached reports whether v is on the source side of the minimum cut the
// last Run ended on: the nodes the source still reaches over arcs with
// residual capacity. Every edge leaving the set is saturated outwards and
// every drain inside it is full.
func (f *MaxFlow) Reached(v int) bool { return f.level[v] >= 0 }

// levels labels every node with its BFS distance from src over arcs with
// residual capacity and reports whether some labelled node can still absorb
// flow. The search stops expanding at the first such node's level: deeper
// nodes lie on no shortest walk to the super-sink. When it reports false the
// labelled nodes are the source side of a minimum cut.
func (f *MaxFlow) levels(src int32) bool {
	for i := range f.level {
		f.level[i] = -1
	}
	f.sinkLevel = -1
	f.level[src] = 0
	q := append(f.queue[:0], src)
	for head := 0; head < len(q); head++ {
		v := q[head]
		next := f.level[v] + 1
		if f.sinkLevel < 0 && f.left[v] > 0 {
			f.sinkLevel = next
		}
		if f.sinkLevel >= 0 && next >= f.sinkLevel {
			continue
		}
		for _, h := range f.g.adj[v] {
			if f.level[h.Peer] < 0 && f.res[arc(v, h)] > 0 {
				f.level[h.Peer] = next
				q = append(q, h.Peer)
			}
		}
	}
	f.queue = q[:0]
	return f.sinkLevel >= 0
}

// blockingFlow saturates the level graph: it walks from src along arcs that
// descend one level, augments whenever the walk stands on a node one level
// above the super-sink with drain capacity left, and retires a node (level
// -1) once every arc out of it is exhausted. Each augmentation restarts the
// walk at src; the per-node cursors make the restart cost one walk length.
func (f *MaxFlow) blockingFlow(src int32) float64 {
	for i := range f.iter {
		f.iter[i] = 0
	}
	total := 0.0
	v := src
	f.pathArc, f.pathNode = f.pathArc[:0], f.pathNode[:0]
	for {
		if f.level[v]+1 == f.sinkLevel && f.left[v] > 0 {
			d := f.left[v]
			for _, a := range f.pathArc {
				d = min(d, f.res[a])
			}
			for _, a := range f.pathArc {
				f.res[a] -= d
				f.res[a^1] += d
			}
			f.left[v] -= d
			total += d
			v = src
			f.pathArc, f.pathNode = f.pathArc[:0], f.pathNode[:0]
			continue
		}
		adj := f.g.adj[v]
		advanced := false
		for int(f.iter[v]) < len(adj) {
			h := adj[f.iter[v]]
			if a := arc(v, h); f.res[a] > 0 && f.level[h.Peer] == f.level[v]+1 {
				f.pathArc = append(f.pathArc, a)
				f.pathNode = append(f.pathNode, v)
				v = h.Peer
				advanced = true
				break
			}
			f.iter[v]++
		}
		if advanced {
			continue
		}
		if v == src {
			return total
		}
		f.level[v] = -1
		last := len(f.pathArc) - 1
		v = f.pathNode[last]
		f.pathArc, f.pathNode = f.pathArc[:last], f.pathNode[:last]
		f.iter[v]++
	}
}
