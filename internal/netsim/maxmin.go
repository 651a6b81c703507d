package netsim

import (
	"fmt"
	"math"

	"flattree/internal/mcf"
	"flattree/internal/routing"
	"flattree/internal/topo"
)

// MaxMinResult summarizes a static max-min solve.
type MaxMinResult struct {
	// Lambda is min over commodities of rate/demand under max-min fair
	// sharing — directly comparable with mcf.Result.Lambda.
	Lambda float64
	// MeanLambda averages rate/demand over commodities.
	MeanLambda float64
	// Subflows is the number of (commodity, path) pairs simulated.
	Subflows int
}

// MaxMin computes max-min fair rates for the commodities, each split over
// the candidate paths the scheme returns for its switch pair: every
// (commodity, path) pair is one subflow in the progressive filling, and a
// commodity's rate is the sum over its subflows.
func MaxMin(nw *topo.Network, scheme routing.Scheme, commodities []mcf.Commodity) (MaxMinResult, error) {
	if len(commodities) == 0 {
		return MaxMinResult{Lambda: math.Inf(1), MeanLambda: math.Inf(1)}, nil
	}
	f := newFabric(nw, scheme)
	var (
		flows [][]int32 // links of each subflow
		owner []int     // its commodity
	)
	commRate := make([]float64, len(commodities))
	for ci, c := range commodities {
		if !(c.Demand > 0) {
			return MaxMinResult{}, fmt.Errorf("netsim: non-positive demand %g", c.Demand)
		}
		s, d, err := f.endpoints(c.Src, c.Dst)
		if err != nil {
			return MaxMinResult{}, err
		}
		if s == d {
			commRate[ci] = math.Inf(1) // local, uncapacitated
			continue
		}
		paths, err := f.paths(s, d)
		if err != nil {
			return MaxMinResult{}, err
		}
		for _, links := range paths {
			flows = append(flows, links)
			owner = append(owner, ci)
		}
	}
	rate := make([]float64, len(flows))
	fill(f.capacity, flows, rate)
	for fi, r := range rate {
		commRate[owner[fi]] += r
	}

	res := MaxMinResult{Lambda: math.Inf(1), Subflows: len(flows)}
	sum := 0.0
	for ci, c := range commodities {
		v := commRate[ci] / c.Demand
		if v < res.Lambda {
			res.Lambda = v
		}
		if !math.IsInf(v, 1) {
			sum += v
		}
	}
	res.MeanLambda = sum / float64(len(commodities))
	return res, nil
}
