package experiments

import (
	"context"
	"fmt"

	"flattree/internal/core"
	"flattree/internal/faults"
	"flattree/internal/mcf"
	"flattree/internal/parallel"
	"flattree/internal/topo"
	"flattree/internal/traffic"
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
// Throughput is the max concurrent flow of a seeded random server
// permutation (each surviving server sends unit demand to one peer),
// solved with SkipDualBound; a disconnected network scores 0 without
// solving. Cells fan out over cfg.Parallelism workers and reduce in index
// order, so the table is byte-identical at every worker count.
func FaultsRecovery(ctx context.Context, cfg Config, k int, base faults.Scenario) (*Table, error) {
	trials := cfg.trials()
	s, err := buildSuite(k, cfg.Seed, core.ModeGlobalRandom, false)
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

	type cell struct {
		connF, aplF, tputF float64
		connR, aplR, tputR float64
		finiteF, finiteR   bool
		approxF, approxR   bool
	}
	seeds := cfg.trialSeeds()
	perFrac := len(targets) * trials
	results, err := parallel.MapCtx(ctx, len(fracs)*perFrac, cfg.workers(), func(idx int) (cell, error) {
		fi, rest := idx/perFrac, idx%perFrac
		ni, tr := rest/trials, rest%trials
		tg := targets[ni]
		sc := base
		sc.LinkFraction = fracs[fi]
		sc.Seed = seeds.Seed(uint64(tr))
		out, err := faults.Fail(tg.nw, sc)
		if err != nil {
			return cell{}, fmt.Errorf("faultsrecovery frac=%.2f net=%s trial=%d: %w", fracs[fi], tg.name, tr, err)
		}
		measure := func(nw *topo.Network) (conn, apl, tput float64, finite, approx bool, err error) {
			rep, err := faults.Analyze(nw)
			if err != nil {
				return 0, 0, 0, false, false, err
			}
			conn, apl, finite = rep.LargestComponentFrac, rep.APL, rep.APL > 0
			if !rep.Connected {
				return conn, apl, 0, finite, false, nil // disconnected pairs ship nothing
			}
			comms := traffic.Permutation(nw.Servers(), sc.Seed)
			if len(comms) == 0 {
				return conn, apl, 0, finite, false, nil
			}
			res, err := mcf.MaxConcurrentFlow(ctx, nw, comms, mcf.Options{
				Epsilon: cfg.Epsilon, SkipDualBound: true, TimeBudget: cfg.SolveBudget})
			if err != nil {
				return 0, 0, 0, false, false, err
			}
			return conn, apl, res.Lambda, finite, res.Approximate, nil
		}
		var c cell
		if c.connF, c.aplF, c.tputF, c.finiteF, c.approxF, err = measure(out.Net); err != nil {
			return cell{}, err
		}
		rec, _, err := faults.Recover(out, faults.RecoverOptions{
			Seed:      seeds.Seed(1<<32 | uint64(tr)),
			Rewirable: tg.rewirable,
		})
		if err != nil {
			return cell{}, err
		}
		if c.connR, c.aplR, c.tputR, c.finiteR, c.approxR, err = measure(rec); err != nil {
			return cell{}, err
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}

	for fi, frac := range fracs {
		row := []string{fmt.Sprintf("%.2f", frac)}
		for ni := range targets {
			var connF, aplF, tputF, connR, aplR, tputR float64
			finF, finR := 0, 0
			approxF, approxR := false, false
			for tr := 0; tr < trials; tr++ {
				c := results[fi*perFrac+ni*trials+tr]
				connF += c.connF
				connR += c.connR
				tputF += c.tputF
				tputR += c.tputR
				approxF = approxF || c.approxF
				approxR = approxR || c.approxR
				if c.finiteF {
					aplF += c.aplF
					finF++
				}
				if c.finiteR {
					aplR += c.aplR
					finR++
				}
			}
			ft := float64(trials)
			aplCell := func(sum float64, n int) string {
				if n == 0 {
					return "-"
				}
				return f3(sum / float64(n))
			}
			row = append(row,
				f3(connF/ft), aplCell(aplF, finF), lambdaCell(tputF/ft, approxF),
				f3(connR/ft), aplCell(aplR, finR), lambdaCell(tputR/ft, approxR))
		}
		t.AddRow(row...)
	}
	return t, nil
}
