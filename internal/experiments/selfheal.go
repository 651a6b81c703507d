package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"flattree/internal/core"
	"flattree/internal/ctrl"
	"flattree/internal/graph"
	"flattree/internal/parallel"
	"flattree/internal/topo"
)

// SelfHeal measures the online self-healing loop end to end: for each
// trial it stands up a live control plane (controller + one TCP agent per
// pod, heartbeating), kills a seeded fraction of the agents mid-run, waits
// for the heartbeat-deadline monitor to declare them dead, and lets
// ctrl.SelfHeal drive the staged repair. The resulting table is the
// throughput trajectory: pre-failure → failed → each §2.7 dark window →
// recovered, with connectivity and path length alongside λ.
//
// The run has two steps. First every trial's live phase runs at once, one
// worker per trial: those phases wait on heartbeat deadlines and TCP round
// trips, not on the CPU, and their outcome is a deterministic function of
// the seed (TCP timing only affects wall-clock). No scoring runs beside
// them, so no solve can starve a heartbeat past its deadline. Then every
// (stage, trial) cell that exists fans out over cfg.Parallelism workers in
// stage-major order, so the costliest solves (the intact pre-failure
// fabrics) start first. Each stage's cells fold in trial order, so the
// table is byte-identical at every worker count, however ragged the
// trials' window counts. λ is the max concurrent flow of a seeded
// permutation workload over the largest connected component's servers
// (dark windows detach some servers; they are down, not partitioned, and
// the surviving fabric's throughput is the quantity of interest).
func SelfHeal(ctx context.Context, cfg Config, k int, failFrac float64, batchSize int) (*Table, error) {
	if failFrac <= 0 || failFrac >= 1 {
		return nil, fmt.Errorf("selfheal: fail fraction %g out of (0,1)", failFrac)
	}
	nDead := int(failFrac * float64(k))
	if nDead < 1 {
		nDead = 1
	}
	if nDead >= k {
		nDead = k - 1
	}
	trials := cfg.trials()
	seeds := cfg.trialSeeds()

	stages, err := parallel.MapCtx(ctx, trials, trials, func(tr int) ([]*topo.Network, error) {
		st, err := runSelfHealTrial(ctx, k, nDead, batchSize, seeds.Seed(uint64(tr)))
		if err != nil {
			return nil, fmt.Errorf("selfheal trial %d: %w", tr, err)
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	maxWin := 0
	for _, st := range stages {
		maxWin = max(maxWin, len(st)-3)
	}

	canon := []string{"pre-failure", "failed"}
	for i := 1; i <= maxWin; i++ {
		canon = append(canon, fmt.Sprintf("window-%d", i))
	}
	canon = append(canon, "recovered")

	// The work list holds every (stage, trial) cell that exists, stage by
	// stage; a trial whose repair used fewer windows skips the rest.
	type cell struct {
		si, tr int
		nw     *topo.Network
	}
	var cells []cell
	for si := range canon {
		for tr, st := range stages {
			switch {
			case si == len(canon)-1:
				cells = append(cells, cell{si, tr, st[len(st)-1]})
			case si < len(st)-1:
				cells = append(cells, cell{si, tr, st[si]})
			}
		}
	}
	scores, err := parallel.MapCtx(ctx, len(cells), cfg.workers(), func(i int) (damage, error) {
		c := cells[i]
		d, err := scoreDamage(ctx, cfg, c.nw, seeds.Seed(1<<32|uint64(c.tr)), false)
		if err != nil {
			return d, fmt.Errorf("selfheal %s trial=%d: %w", canon[c.si], c.tr, err)
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: fmt.Sprintf("self-heal trajectory at k=%d: kill %d/%d pod agents, staged repair in batches of %d (avg over %d trials)",
			k, nDead, k, batchSize, trials),
		Header: []string{"stage", "trials", "conn", "apl", "lambda"},
	}
	// Each stage's cells are contiguous and in trial order, so one pass
	// folds every row's trials in trial order.
	for i := 0; i < len(cells); {
		si := cells[i].si
		var m trialMean
		for ; i < len(cells) && cells[i].si == si; i++ {
			m.add(scores[i])
		}
		t.AddRow(canon[si], fmt.Sprint(m.n), m.connCell(), m.aplCell(), m.lambdaCell())
	}
	return t, nil
}

// runSelfHealTrial executes one live self-heal round and returns the
// trajectory's effective networks in stage order: pre-failure, failed,
// one per dark window, recovered.
func runSelfHealTrial(ctx context.Context, k, nDead, batchSize int, seed uint64) ([]*topo.Network, error) {
	ft, err := core.BuildIn(core.Params{K: k}, core.ModeGlobalRandom)
	if err != nil {
		return nil, err
	}
	pre := ft.Net()
	p, err := ctrl.StartPlant(ctx, ft, 5*time.Millisecond, 0)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	c := p.Controller()

	// Kill a seeded set of agents: their heartbeats stop, and the
	// controller's deadline monitor declares the pods dead.
	dead := append([]int(nil), graph.NewRNG(seed).Perm(k)[:nDead]...)
	sort.Ints(dead)
	for _, pod := range dead {
		p.Kill(pod)
	}
	wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
	defer wcancel()
	const deadline = 60 * time.Millisecond
	if _, err := c.WaitForFailures(wctx, dead, deadline); err != nil {
		return nil, err
	}

	rep, err := c.SelfHeal(ctx, dead, ctrl.SelfHealOptions{
		Seed: seed, BatchSize: batchSize, RequireConnected: true})
	if err != nil {
		return nil, err
	}
	stages := []*topo.Network{pre, rep.Degraded}
	for _, w := range rep.Windows {
		stages = append(stages, w.Dark)
	}
	return append(stages, rep.Healed), nil
}
