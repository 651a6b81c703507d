package experiments

import (
	"context"
	"fmt"

	"flattree/internal/core"
	"flattree/internal/faults"
	"flattree/internal/parallel"
	"flattree/internal/topo"
)

// FaultsRecovery measures the §5 self-recovery claim end to end: for
// growing link-failure fractions it applies the scenario, measures the
// degraded network, runs the recovery pass, and measures again — so every
// row reads before-failure (the 0.00 row) → after-failure → after-recovery
// for each topology built from the same equipment.
//
// The base scenario contributes the correlated failure stages (switch
// fraction, pod bursts, converter deaths); the sweep overrides its
// LinkFraction and per-trial Seed. Recovery policy is per topology: the
// fat-tree's fixed cabling cannot rewire (faults.RewirableNone), while the
// flat-tree and the random graph re-aim their converter/random ports
// (faults.DefaultRewirable) — which is exactly the asymmetry the paper
// argues for.
//
// Throughput is chaos.Score's max concurrent flow of a seeded random
// server permutation (each surviving server sends unit demand to one
// peer), solved with SkipDualBound; a disconnected network scores 0
// without solving. When recovery rewired nothing (faults.Recover returned
// the degraded network itself) the recovered cell reuses the failed one.
// Cells fan out over cfg.Parallelism workers and reduce in index order, so
// the table is byte-identical at every worker count.
func FaultsRecovery(ctx context.Context, cfg Config, k int, base faults.Scenario) (*Table, error) {
	trials := cfg.trials()
	s, err := buildSuite(k, cfg.Seed, core.ModeGlobalRandom, []topology{fatTree, flatTree, randomGraph})
	if err != nil {
		return nil, err
	}
	type target struct {
		name      string
		nw        *topo.Network
		rewirable func(topo.LinkTag) bool
	}
	targets := []target{
		{"fat-tree", s.fat.Net, faults.RewirableNone},
		{"flat-tree", s.flat.Net(), faults.DefaultRewirable},
		{"random-graph", s.rg.Net, faults.DefaultRewirable},
	}
	fracs := []float64{0, 0.05, 0.1, 0.2, 0.3}

	t := &Table{
		Title:  fmt.Sprintf("failure -> recovery at k=%d (avg over %d trials; fail/rec = after failure / after recovery)", k, trials),
		Header: []string{"fail-frac"},
	}
	for _, tg := range targets {
		t.Header = append(t.Header,
			tg.name+"/conn-fail", tg.name+"/apl-fail", tg.name+"/tput-fail",
			tg.name+"/conn-rec", tg.name+"/apl-rec", tg.name+"/tput-rec")
	}

	// Each cell is one trial's pair of measurements: after failure, after
	// recovery.
	seeds := cfg.trialSeeds()
	perFrac := len(targets) * trials
	results, err := parallel.MapCtx(ctx, len(fracs)*perFrac, cfg.workers(), func(idx int) ([2]damage, error) {
		fi, rest := idx/perFrac, idx%perFrac
		ni, tr := rest/trials, rest%trials
		tg := targets[ni]
		sc := base
		sc.LinkFraction = fracs[fi]
		sc.Seed = seeds.Seed(uint64(tr))
		var c [2]damage
		out, err := faults.Fail(tg.nw, sc)
		if err != nil {
			return c, fmt.Errorf("faultsrecovery frac=%.2f net=%s trial=%d: %w", fracs[fi], tg.name, tr, err)
		}
		if c[0], err = scoreDamage(ctx, cfg, out.Net, sc.Seed, true); err != nil {
			return c, err
		}
		rec, _, err := faults.Recover(out, faults.RecoverOptions{
			Seed:      seeds.Seed(1<<32 | uint64(tr)),
			Rewirable: tg.rewirable,
		})
		if err != nil {
			return c, err
		}
		if rec == out.Net {
			// Nothing was rewired (fixed cabling, or no failure): the
			// recovered cell is the failed one.
			c[1] = c[0]
			return c, nil
		}
		c[1], err = scoreDamage(ctx, cfg, rec, sc.Seed, true)
		return c, err
	})
	if err != nil {
		return nil, err
	}

	for fi, frac := range fracs {
		row := []string{fmt.Sprintf("%.2f", frac)}
		for ni := range targets {
			var fail, rec trialMean
			for _, c := range results[fi*perFrac+ni*trials:][:trials] {
				fail.add(c[0])
				rec.add(c[1])
			}
			row = append(row,
				fail.connCell(), fail.aplCell(), fail.lambdaCell(),
				rec.connCell(), rec.aplCell(), rec.lambdaCell())
		}
		t.AddRow(row...)
	}
	return t, nil
}
