package experiments

import (
	"context"
	"fmt"

	"flattree/internal/chaos"
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
	s, err := buildSuite(k, cfg.Seed, core.ModeGlobalRandom, []topology{fatTree, flatTree, randomGraph})
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
	seeds := cfg.trialSeeds()
	perFrac := len(targets) * trials
	results, err := parallel.MapCtx(ctx, len(fracs)*perFrac, cfg.workers(), func(idx int) (damage, error) {
		fi, rest := idx/perFrac, idx%perFrac
		ni, tr := rest/trials, rest%trials
		d, err := faults.Degrade(targets[ni], faults.Scenario{
			LinkFraction: fracs[fi], Seed: seeds.Seed(uint64(tr)),
		})
		if err != nil {
			return damage{}, err
		}
		rep, err := faults.Analyze(d)
		return damage{rep: rep}, err
	})
	if err != nil {
		return nil, err
	}

	for fi, frac := range fracs {
		row := []string{fmt.Sprintf("%.2f", frac)}
		for ni := range targets {
			var m trialMean
			for _, d := range results[fi*perFrac+ni*trials:][:trials] {
				m.add(d)
			}
			row = append(row, m.connCell(), m.aplCell(), fmt.Sprint(m.disc))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// damage is one trial's measurement of a damaged network: its
// faults.Analyze report and, where the table scores throughput, λ.
type damage struct {
	rep    faults.Report
	lambda float64
	approx bool // the solve stopped at the run's deadline
}

// scoreDamage measures a damaged network for a failure table: faults.Analyze
// plus chaos.Score's λ over the largest component. With wholeOnly set, a
// network whose servers are not all connected scores 0 without solving:
// pairs split by the failure ship nothing.
func scoreDamage(ctx context.Context, cfg Config, nw *topo.Network, seed uint64, wholeOnly bool) (damage, error) {
	rep, err := faults.Analyze(nw)
	if err != nil || (wholeOnly && !rep.Connected) {
		return damage{rep: rep}, err
	}
	_, lambda, approx, err := chaos.Score(ctx, nw, seed, cfg.Epsilon)
	return damage{rep: rep, lambda: lambda, approx: approx}, err
}

// trialMean folds the trials of one failure-table cell, in trial order.
// Connectivity and λ average over every trial; path length only over
// trials whose largest component held a server pair (faults.Report.APL is
// 0 otherwise), and "-" when none did.
type trialMean struct {
	n, finite, disc   int // disc: trials whose servers were not all connected
	conn, apl, lambda float64
	approx            bool
}

func (m *trialMean) add(d damage) {
	m.n++
	m.conn += d.rep.LargestComponentFrac
	m.lambda += d.lambda
	m.approx = m.approx || d.approx
	if d.rep.APL > 0 {
		m.apl += d.rep.APL
		m.finite++
	}
	if !d.rep.Connected {
		m.disc++
	}
}

func (m *trialMean) connCell() string   { return f3(m.conn / float64(m.n)) }
func (m *trialMean) lambdaCell() string { return lambdaCell(m.lambda/float64(m.n), m.approx) }

func (m *trialMean) aplCell() string {
	if m.finite == 0 {
		return "-"
	}
	return f3(m.apl / float64(m.finite))
}
