package chaos

import (
	"context"
	"fmt"

	"flattree/internal/faults"
	"flattree/internal/mcf"
	"flattree/internal/metrics"
	"flattree/internal/parallel"
	"flattree/internal/topo"
	"flattree/internal/traffic"
)

// measure runs the λ sweep over the live loop's segments and folds the
// series into the availability summary. Each segment is one work item, a
// function of its own fabric alone, so the result is byte-identical at any
// worker count. Lambda0 comes from the first (baseline) segment.
func (e *engine) measure(ctx context.Context, baseline *topo.Network) (*Result, error) {
	res := &Result{
		Episodes: e.episodes,
		Windows:  e.windows,
		Replans:  e.replans,
		Excluded: append([]int(nil), e.excluded...),
		Horizon:  e.opt.Horizon,
	}
	if len(e.spans) == 0 {
		return res, nil
	}
	baseServers := len(baseline.Servers())
	commSeed := e.stream.Seed(1 << 40)

	type cell struct {
		frac, lambda float64
		approx       bool
	}
	cells, err := parallel.MapCtx(ctx, len(e.spans), e.opt.Parallelism, func(i int) (cell, error) {
		sp := e.spans[i]
		comp := faults.LargestComponent(sp.nw)
		c := cell{frac: float64(len(comp)) / float64(baseServers)}
		comms := traffic.Permutation(comp, commSeed)
		if len(comms) > 0 {
			r, err := mcf.MaxConcurrentFlow(ctx, sp.nw, comms, mcf.Options{
				Epsilon: e.opt.Epsilon, SkipDualBound: true,
				TimeBudget: e.opt.SolveBudget})
			if err != nil {
				return cell{}, fmt.Errorf("chaos: measure t=%g (%s): %w", sp.t, sp.label, err)
			}
			c.lambda, c.approx = r.Lambda, r.Approximate
		}
		return c, nil
	})
	if err != nil {
		return res, err
	}
	res.Lambda0 = cells[0].lambda

	segs := make([]metrics.Segment, 0, len(e.spans))
	for i, sp := range e.spans {
		c := cells[i]
		served := c.frac
		if res.Lambda0 > 0 {
			rel := c.lambda / res.Lambda0
			if rel < 1 {
				served *= rel
			}
		} else if c.lambda <= 0 {
			served = 0
		}
		res.Samples = append(res.Samples, Sample{
			T: sp.t, Dur: sp.dur, Label: sp.label,
			Episode: sp.episode, InWindow: sp.inWindow,
			ServerFrac: c.frac, Lambda: c.lambda, Served: served,
			Approx: c.approx,
		})
		segs = append(segs, metrics.Segment{Dur: sp.dur, Value: served})
	}
	slo, err := metrics.SLO(segs, e.opt.SLOThreshold)
	if err != nil {
		return res, err
	}
	res.SLO = slo
	return res, nil
}
