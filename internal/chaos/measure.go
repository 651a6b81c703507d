package chaos

import (
	"context"
	"fmt"
	"time"

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

	samples, err := parallel.MapCtx(ctx, len(e.spans), e.opt.Parallelism, func(i int) (Sample, error) {
		sp := e.spans[i]
		servers, lambda, approx, err := Score(ctx, sp.nw, commSeed, e.opt.Epsilon, e.opt.SolveBudget)
		if err != nil {
			return Sample{}, fmt.Errorf("chaos: measure t=%g (%s): %w", sp.t, sp.label, err)
		}
		return Sample{
			T: sp.t, Dur: sp.dur, Label: sp.label,
			Episode: sp.episode, InWindow: sp.inWindow,
			ServerFrac: float64(servers) / float64(baseServers), Lambda: lambda,
			Approx: approx,
		}, nil
	})
	if err != nil {
		return res, err
	}
	res.Lambda0 = samples[0].Lambda

	segs := make([]metrics.Segment, 0, len(samples))
	for i := range samples {
		s := &samples[i]
		s.Served = s.ServerFrac
		if res.Lambda0 > 0 {
			rel := s.Lambda / res.Lambda0
			if rel < 1 {
				s.Served *= rel
			}
		} else if s.Lambda <= 0 {
			s.Served = 0
		}
		segs = append(segs, metrics.Segment{Dur: s.Dur, Value: s.Served})
	}
	res.Samples = samples
	slo, err := metrics.SLO(segs, e.opt.SLOThreshold)
	if err != nil {
		return res, err
	}
	res.SLO = slo
	return res, nil
}

// Score measures a possibly damaged fabric the way the soak, self-heal and
// failure-recovery drivers do: λ of a seeded unit-demand permutation over the servers of
// the largest connected component (servers a failure or dark window cut
// off are down, not partitioned). It returns that component's server
// count, λ (0 when fewer than two servers remain) and whether the solve
// stopped at its time budget.
func Score(ctx context.Context, nw *topo.Network, seed uint64, eps float64, budget time.Duration) (servers int, lambda float64, approx bool, err error) {
	comp := faults.LargestComponent(nw)
	comms := traffic.Permutation(comp, seed)
	if len(comms) == 0 {
		return len(comp), 0, false, nil
	}
	r, err := mcf.MaxConcurrentFlow(ctx, nw, comms, mcf.Options{
		Epsilon: eps, SkipDualBound: true, TimeBudget: budget})
	if err != nil {
		return 0, 0, false, err
	}
	return len(comp), r.Lambda, r.Approximate, nil
}
