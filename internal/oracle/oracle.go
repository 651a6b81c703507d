// Package oracle holds the test-only references the product's solvers are
// checked against. Only _test.go files import it: nothing here ships in a
// binary, and nothing here shares code with the code it checks.
//
// MaxConcurrentFlow is §3.1's throughput metric (maximum concurrent flow,
// citing Leighton & Rao) as the paper states it: the edge-based LP, solved
// exactly by internal/lp's simplex. It reads the network through topo's
// public fabric view and does its own commodity aggregation, so a fault in
// internal/mcf's aggregation or solver cannot hide in the reference.
package oracle

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"flattree/internal/graph"
	"flattree/internal/lp"
	"flattree/internal/topo"
)

// Demand asks for throughput between two nodes of a network. Src and Dst
// may be servers, which stand for their host switches, or switches. It has
// mcf.Commodity's field set, so a test converts one with Demand(c).
type Demand struct {
	Src, Dst int
	Demand   float64
}

// pair is one aggregated commodity between switch indices of the fabric.
type pair struct {
	s, t   int32
	demand float64
}

// MaxConcurrentFlow returns the largest λ such that every demand can ship
// λ × Demand at once over the switch fabric, where every switch-switch
// link carries one unit in total over both directions and server access
// links are uncapacitated. Demands whose ends enter the fabric at the
// same switch never load a link and are dropped; if none is left, λ is
// +Inf. The LP has 2·links·pairs + 1 variables, so it is meant for small
// instances (k = 4).
func MaxConcurrentFlow(nw *topo.Network, ds []Demand) (float64, error) {
	var g graph.Graph
	idx := nw.SwitchGraph(&g, nil)
	pairs, err := aggregate(nw, idx, ds)
	if err != nil {
		return 0, err
	}
	if len(pairs) == 0 {
		return math.Inf(1), nil
	}

	// Variables: the flow of pair j on arc a is column j·2m + a, where arc
	// 2e runs from edge e's A end to its B end and arc 2e+1 back; λ is the
	// last column.
	n, m := g.N(), g.M()
	lambda := len(pairs) * 2 * m
	flow := func(j, arc int) int { return j*2*m + arc }
	prob := lp.NewProblem(lambda + 1)
	prob.Maximize()
	prob.SetObjectiveCoef(lambda, 1)

	// Conservation: at every node, pair j's outflow minus inflow is
	// λ·demand at its source, −λ·demand at its sink and 0 elsewhere.
	for j, p := range pairs {
		for v := range n {
			row := make(map[int]float64)
			for _, h := range g.Neighbors(v) {
				e := int(h.Edge)
				out, in := 2*e, 2*e+1
				if int(g.Edge(e).A) != v {
					out, in = in, out
				}
				row[flow(j, out)]++
				row[flow(j, in)]--
			}
			switch int32(v) {
			case p.s:
				row[lambda] = -p.demand
			case p.t:
				row[lambda] = p.demand
			}
			prob.AddConstraint(row, lp.EQ, 0)
		}
	}
	// Capacity: both directions of a link share its one unit.
	for e := range m {
		row := make(map[int]float64, 2*len(pairs))
		for j := range pairs {
			row[flow(j, 2*e)] = 1
			row[flow(j, 2*e+1)] = 1
		}
		prob.AddConstraint(row, lp.LE, 1)
	}

	sol, err := prob.Solve()
	if err != nil {
		return 0, err
	}
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("oracle: LP status %s", sol.Status)
	}
	return sol.X[lambda], nil
}

// aggregate resolves every demand to the switches its ends enter the
// fabric at, drops same-switch demands, and merges demands between the
// same ordered switch pair. Pairs come out sorted by (source, sink), and
// each pair's demands are summed in ascending order, so the result is a
// function of the demand multiset: the order of ds cannot change it.
func aggregate(nw *topo.Network, idx []int32, ds []Demand) ([]pair, error) {
	var raw []pair
	for i, d := range ds {
		if !(d.Demand > 0) || math.IsInf(d.Demand, 1) {
			return nil, fmt.Errorf("oracle: demand %d: %g must be positive and finite", i, d.Demand)
		}
		s, err := nw.EntrySwitch(d.Src)
		if err != nil {
			return nil, fmt.Errorf("oracle: demand %d: %w", i, err)
		}
		t, err := nw.EntrySwitch(d.Dst)
		if err != nil {
			return nil, fmt.Errorf("oracle: demand %d: %w", i, err)
		}
		if s != t {
			raw = append(raw, pair{s: idx[s], t: idx[t], demand: d.Demand})
		}
	}
	slices.SortFunc(raw, func(a, b pair) int {
		return cmp.Or(cmp.Compare(a.s, b.s), cmp.Compare(a.t, b.t), cmp.Compare(a.demand, b.demand))
	})
	var pairs []pair
	for _, p := range raw {
		if last := len(pairs) - 1; last >= 0 && pairs[last].s == p.s && pairs[last].t == p.t {
			pairs[last].demand += p.demand
			continue
		}
		pairs = append(pairs, p)
	}
	return pairs, nil
}
