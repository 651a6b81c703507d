package experiments

import (
	"context"
	"fmt"

	"flattree/internal/chaos"
)

// Soak runs the chaos soak comparison of §5: the same seeded stream of
// correlated failure episodes replayed against two fabrics — the
// self-healing flat-tree (live control plane, repairs overlapping new
// failures) and a fixed-cabling fat-tree control that can only absorb
// damage — and tables the availability verdict for each. cfg supplies
// the seed, solver settings and measurement parallelism; opt shapes the
// event stream (rate, horizon, mix, window cost, SLO threshold).
//
// On cancellation the table holds every arm that finished plus the
// partial arm's series, alongside the error — an interrupted soak still
// reports what it saw.
func Soak(ctx context.Context, cfg Config, k int, opt chaos.Options) (*Table, error) {
	opt.K = k
	opt.Seed = cfg.Seed
	opt.Epsilon = cfg.Epsilon
	opt.SolveBudget = cfg.SolveBudget
	opt.Parallelism = cfg.Parallelism

	t := &Table{
		Title: fmt.Sprintf("chaos soak, k=%d: rate %g, horizon %g, window cost %g, SLO %g, seed %d",
			k, opt.Rate, opt.Horizon, opt.WindowCost, opt.SLOThreshold, opt.Seed),
		Header: []string{"topology", "episodes", "windows", "replans", "avail",
			"breaches", "served-mean", "served-min", "lambda0", "mean-latency", "unrepaired"},
	}
	arms := []struct {
		name    string
		control bool
	}{
		{"flat-tree/self-heal", false},
		{"fat-tree/control", true},
	}
	for _, arm := range arms {
		o := opt
		o.Control = arm.control
		res, err := chaos.Run(ctx, o)
		if res != nil && len(res.Samples) > 0 {
			t.AddRow(soakRow(arm.name, res)...)
		}
		if err != nil {
			return t, err
		}
	}
	return t, nil
}

// soakRow folds one arm's Result into its table row.
func soakRow(name string, res *chaos.Result) []string {
	latSum, repaired, unrepaired := 0.0, 0, 0
	for _, ep := range res.Episodes {
		if ep.Latency < 0 {
			unrepaired++
			continue
		}
		latSum += ep.Latency
		repaired++
	}
	meanLat := "-"
	if repaired > 0 {
		meanLat = f3(latSum / float64(repaired))
	}
	approx0 := len(res.Samples) > 0 && res.Samples[0].Approx
	return []string{
		name,
		fmt.Sprint(len(res.Episodes)),
		fmt.Sprint(res.Windows),
		fmt.Sprint(res.Replans),
		f3(res.SLO.Availability),
		fmt.Sprint(res.SLO.Breaches),
		f3(res.SLO.Mean),
		f3(res.SLO.Min),
		lambdaCell(res.Lambda0, approx0),
		meanLat,
		fmt.Sprint(unrepaired),
	}
}
