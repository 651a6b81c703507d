package mcf

import (
	"context"
	"fmt"

	"flattree/internal/graph"
)

// starArena is the scratch of the exact path: the instance restated as one
// center switch and its leaves, plus the max-flow workspace. It is pooled
// with the solveState like the FPTAS arena, so after warm-up an exact solve
// allocates nothing.
type starArena struct {
	mf     *graph.MaxFlow
	center int32
	leaf   []int32   // the other endpoint of every commodity, ascending
	demand []float64 // demand[i] is leaf[i]'s
	drain  []float64 // per switch: λ·demand at the leaves, 0 elsewhere
}

// stageStar reports whether the aggregated problem is star-shaped — every
// commodity has one switch at one of its ends — and if so restates it in
// st.star. Links are undirected, so broadcast, incast and any mix of the two
// at one hot spot are the same flow problem (traffic.BroadcastCommodities
// documents the symmetry), and aggregate roots every star at its center: a
// star is an instance with one root. Its leaves are staged in ascending
// switch order, which makes an incast solve bit-identical to its broadcast
// transpose.
func (st *solveState) stageStar() bool {
	pr, sa := &st.pr, &st.star
	if len(pr.srcs) != 1 {
		return false
	}
	sa.center = pr.srcs[0]
	sa.leaf, sa.demand = sa.leaf[:0], sa.demand[:0]
	for _, c := range pr.comms {
		sa.leaf = append(sa.leaf, c.dst)
		sa.demand = append(sa.demand, c.demand)
	}
	return true
}

// solveStar solves a staged star instance exactly. Shipping λ·d_t from the
// center to every leaf t at once is one single-commodity flow into a
// super-sink behind arcs of capacity λ·d_t, and by max-flow/min-cut it
// exists iff no switch set S around the center has cap(δ(S)) below λ times
// the demand outside S. So the optimum is the smallest cut ratio
// cap(δ(S))/D(V∖S), found by Newton's method on the piecewise-linear
// max-flow value: start at the ratio of the center's own links, and while
// the max flow at λ falls short of λ·ΣD its minimum cut has a smaller ratio —
// move λ there. λ only decreases and every value is the ratio of a cut, so
// the loop ends on a λ its own max flow certifies; in practice after 1–3
// rounds. Lambda is read off that flow (the worst leaf's delivered share)
// and UpperBound off the cut, so the two differ by rounding only. The
// context is checked between rounds; there is no budget to spend, so the
// result is never Approximate.
func (st *solveState) solveStar(ctx context.Context) (Result, error) {
	pr, sa := &st.pr, &st.star
	n := pr.g.N()
	if sa.mf == nil {
		sa.mf = pr.g.NewMaxFlow()
	} else {
		sa.mf.Rebind(pr.g)
	}
	sa.drain = zeroed(sa.drain, n)

	total := 0.0
	for _, d := range sa.demand {
		total += d
	}
	own := 0.0
	for _, h := range pr.g.Neighbors(int(sa.center)) {
		own += pr.cap[h.Edge]
	}
	lambda := own / total
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		for i, t := range sa.leaf {
			sa.drain[t] = lambda * sa.demand[i]
		}
		sa.mf.Run(int(sa.center), pr.cap, sa.drain)

		// The cut the flow ended on: links leaving the center's residual
		// side, and the demand of the leaves beyond it.
		crossing, cut := 0, 0.0
		for e, ed := range pr.g.Edges() {
			if sa.mf.Reached(int(ed.A)) != sa.mf.Reached(int(ed.B)) {
				crossing++
				cut += pr.cap[e]
			}
		}
		beyond, cutoff := -1, 0.0
		for i, t := range sa.leaf {
			if !sa.mf.Reached(int(t)) {
				if beyond < 0 {
					beyond = i
				}
				cutoff += sa.demand[i]
			}
		}
		if beyond < 0 {
			break // every leaf is on the center's side with its drain full
		}
		if crossing == 0 {
			return Result{}, fmt.Errorf("mcf: commodity %d->%d disconnected", pr.node[sa.center], pr.node[sa.leaf[beyond]])
		}
		next := cut / cutoff
		if next >= lambda {
			break // the cut certifies λ: no set around the center is tighter
		}
		lambda = next
	}
	res := Result{Lambda: lambda, UpperBound: lambda}
	for i, t := range sa.leaf {
		res.Lambda = min(res.Lambda, sa.mf.Absorbed(int(t))/sa.demand[i])
	}
	return res, nil
}
