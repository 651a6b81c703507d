package graph

import "fmt"

// AugmentResult reports what AugmentRandom did to the graph.
type AugmentResult struct {
	// Added holds the edges created by the augmentation. It is recomputed
	// from the final edge table in index order, so it is deterministic for
	// a fixed (graph, free, rng) input.
	Added []Edge
	// Broken holds the indices — in the caller's pre-augmentation edge
	// numbering — of original edges that swap moves removed. Surviving
	// original edges may occupy different indices afterwards; only the
	// pre-augmentation numbering is stable, which is also what the
	// canBreak callback receives.
	Broken []int
	// Leftover is the number of free ports the augmentation could not
	// consume (odd port counts, or swap moves exhausted).
	Leftover int
}

// AugmentRandom wires the free ports of an existing graph together with
// the loop RandomDegree builds its graphs with: join random non-adjacent port-owning
// pairs, and when stuck, break an existing edge and splice a free-port node
// into it (the Jellyfish edge swap). free[v] is the number of additional
// edges node v may receive; g is modified in place.
//
// canBreak, if non-nil, restricts which pre-existing edges swap moves may
// remove; it is called with an edge index in the pre-augmentation
// numbering. Edges created by the augmentation itself are always fair game
// for later swaps. The procedure is deterministic for a fixed rng and
// never adds self loops or parallel edges.
//
// This is the self-recovery primitive from §5 of the flat-tree paper: the
// ports freed by failed peers are rewired into the surviving fabric the
// same way the random (Jellyfish) topology was built in the first place.
func AugmentRandom(g *Graph, free []int, canBreak func(edgeID int) bool, rng *RNG) (AugmentResult, error) {
	n := g.N()
	if len(free) != n {
		return AugmentResult{}, fmt.Errorf("graph: AugmentRandom: len(free)=%d, graph has %d nodes", len(free), n)
	}
	for v, f := range free {
		if f < 0 {
			return AugmentResult{}, fmt.Errorf("graph: AugmentRandom: negative free port count %d at node %d", f, v)
		}
	}
	o := origins{orig: make([]int32, g.M()), canBreak: canBreak}
	for i := range o.orig {
		o.orig[i] = int32(i)
	}
	fr := append([]int(nil), free...)
	wire(g, fr, &o, rng)

	res := AugmentResult{Broken: o.broken}
	for _, f := range fr {
		res.Leftover += f
	}
	for idx := range g.M() {
		if o.added(idx) {
			res.Added = append(res.Added, g.Edge(idx))
		}
	}
	g.SortAdjacency()
	return res, nil
}

// origins maps AugmentRandom's current edge indices back to the caller's
// pre-augmentation numbering while the wiring loop rewires the graph.
// orig[i] is the original index of edge i, or -1 once an added edge has
// moved into slot i; every index at or past len(orig) holds an added edge.
// A nil *origins (RandomDegree) breaks any edge and records nothing.
type origins struct {
	orig     []int32
	canBreak func(edgeID int) bool
	broken   []int // original indices of removed edges, in removal order
}

func (o *origins) added(idx int) bool { return idx >= len(o.orig) || o.orig[idx] < 0 }

// breakable reports whether a swap may remove edge idx.
func (o *origins) breakable(idx int) bool {
	return o == nil || o.canBreak == nil || o.added(idx) || o.canBreak(int(o.orig[idx]))
}

// remove deletes edge idx from g. removeEdgeAt moves the last edge into
// the vacated slot, so the mapping mirrors that move.
func (o *origins) remove(g *Graph, idx int) {
	if o != nil {
		if !o.added(idx) {
			o.broken = append(o.broken, int(o.orig[idx]))
		}
		if last := g.M() - 1; last < len(o.orig) {
			o.orig[idx] = o.orig[last]
			o.orig = o.orig[:last]
		} else if idx < len(o.orig) {
			o.orig[idx] = -1
		}
	}
	g.removeEdgeAt(int32(idx))
}
