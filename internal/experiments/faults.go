package experiments

import (
	"context"
	"fmt"

	"flattree/internal/core"
	"flattree/internal/faults"
	"flattree/internal/parallel"
	"flattree/internal/topo"
)

// Faults measures robustness under random link failures (motivated by §5's
// "self-recovery of the topology from failures"): for growing failure
// fractions, the surviving-connectivity fraction, average path length, and
// disconnection count of fat-tree, flat-tree in global-random mode, and the
// random graph, each built from the same equipment.
//
// Results are averaged over cfg.trials() failure seeds, with one
// correction to the naive mean: a trial whose largest surviving component
// has no server pair contributes no path length at all, so APL is averaged
// only over trials that produced a finite path. (Folding such trials in as
// zeros — what this driver once did — biased the mean downward exactly
// where the network is most degraded.) The "disc" column reports how many
// trials left the surviving servers less than fully connected, so the
// information the APL mean no longer hides is still visible.
func Faults(ctx context.Context, cfg Config, k int) (*Table, error) {
	trials := cfg.trials()
	s, err := buildSuite(k, cfg.Seed, core.ModeGlobalRandom, false)
	if err != nil {
		return nil, err
	}
	targets := []*topo.Network{s.fat.Net, s.flat.Net(), s.rg.Net}
	fracs := []float64{0, 0.05, 0.1, 0.2, 0.3}

	t := &Table{
		Title: fmt.Sprintf("link-failure robustness at k=%d (avg over %d trials)", k, trials),
		Header: []string{"fail-frac",
			"fat-tree/conn", "fat-tree/apl", "fat-tree/disc",
			"flat-tree/conn", "flat-tree/apl", "flat-tree/disc",
			"random-graph/conn", "random-graph/apl", "random-graph/disc"},
	}

	// One cell per (failure fraction, topology, trial); every Degrade +
	// Analyze is independent, so the whole grid fans out.
	type trialResult struct {
		conn, apl    float64
		finite       bool // at least one server pair had a path
		disconnected bool // surviving servers not all mutually reachable
	}
	seeds := cfg.trialSeeds()
	perFrac := len(targets) * trials
	results, err := parallel.MapCtx(ctx, len(fracs)*perFrac, cfg.workers(), func(idx int) (trialResult, error) {
		fi, rest := idx/perFrac, idx%perFrac
		ni, tr := rest/trials, rest%trials
		d, err := faults.Degrade(targets[ni], faults.Scenario{
			LinkFraction: fracs[fi], Seed: seeds.Seed(uint64(tr)),
		})
		if err != nil {
			return trialResult{}, err
		}
		rep, err := faults.Analyze(d)
		if err != nil {
			return trialResult{}, err
		}
		return trialResult{
			conn:         rep.LargestComponentFrac,
			apl:          rep.APL,
			finite:       rep.APL > 0,
			disconnected: !rep.Connected,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	for fi, frac := range fracs {
		row := []string{fmt.Sprintf("%.2f", frac)}
		for ni := range targets {
			var conn, apl float64
			finite, disc := 0, 0
			for tr := 0; tr < trials; tr++ {
				r := results[fi*perFrac+ni*trials+tr]
				conn += r.conn
				if r.finite {
					apl += r.apl
					finite++
				}
				if r.disconnected {
					disc++
				}
			}
			conn /= float64(trials)
			aplCell := "-"
			if finite > 0 {
				aplCell = f3(apl / float64(finite))
			}
			row = append(row, f3(conn), aplCell, fmt.Sprint(disc))
		}
		t.AddRow(row...)
	}
	return t, nil
}
