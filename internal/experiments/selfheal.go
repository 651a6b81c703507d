package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"flattree/internal/chaos"
	"flattree/internal/core"
	"flattree/internal/ctrl"
	"flattree/internal/faults"
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
// The live phase runs trials sequentially (its outcome is a deterministic
// function of the seed; TCP timing only affects wall-clock), and the
// measurement fans out one work item per trial over cfg.Parallelism
// workers, reducing in index order — so the table is byte-identical at
// every worker count. λ is the max concurrent flow of a seeded permutation
// workload over the largest connected component's servers (dark windows
// detach some servers; they are down, not partitioned, and the surviving
// fabric's throughput is the quantity of interest).
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

	stages := make([][]*topo.Network, trials)
	maxWin := 0
	for tr := 0; tr < trials; tr++ {
		st, err := runSelfHealTrial(ctx, k, nDead, batchSize, seeds.Seed(uint64(tr)))
		if err != nil {
			return nil, fmt.Errorf("selfheal trial %d: %w", tr, err)
		}
		stages[tr] = st
		maxWin = max(maxWin, len(st)-3)
	}

	canon := []string{"pre-failure", "failed"}
	for i := 1; i <= maxWin; i++ {
		canon = append(canon, fmt.Sprintf("window-%d", i))
	}
	canon = append(canon, "recovered")

	type healCell struct {
		conn, apl, lambda  float64
		finite, approx, ok bool
	}
	results, err := parallel.MapCtx(ctx, trials, cfg.workers(), func(tr int) ([]healCell, error) {
		cells := make([]healCell, len(canon))
		st := stages[tr]
		for si, name := range canon {
			nw := st[len(st)-1] // recovered
			if si < len(canon)-1 {
				if si >= len(st)-1 {
					continue // this trial's repair used fewer windows
				}
				nw = st[si]
			}
			rep, err := faults.Analyze(nw)
			if err != nil {
				return nil, fmt.Errorf("selfheal %s trial=%d: %w", name, tr, err)
			}
			_, lambda, approx, err := chaos.Score(ctx, nw, seeds.Seed(1<<32|uint64(tr)), cfg.Epsilon, cfg.SolveBudget)
			if err != nil {
				return nil, fmt.Errorf("selfheal %s trial=%d: %w", name, tr, err)
			}
			cells[si] = healCell{conn: rep.LargestComponentFrac, apl: rep.APL, lambda: lambda,
				finite: rep.APL > 0, approx: approx, ok: true}
		}
		return cells, nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: fmt.Sprintf("self-heal trajectory at k=%d: kill %d/%d pod agents, staged repair in batches of %d (avg over %d trials)",
			k, nDead, k, batchSize, trials),
		Header: []string{"stage", "trials", "conn", "apl", "lambda"},
	}
	for si, name := range canon {
		var conn, apl, lambda float64
		n, fin := 0, 0
		approx := false
		for tr := 0; tr < trials; tr++ {
			c := results[tr][si]
			if !c.ok {
				continue
			}
			n++
			conn += c.conn
			lambda += c.lambda
			approx = approx || c.approx
			if c.finite {
				apl += c.apl
				fin++
			}
		}
		if n == 0 {
			continue
		}
		aplStr := "-"
		if fin > 0 {
			aplStr = f3(apl / float64(fin))
		}
		t.AddRow(name, fmt.Sprint(n), f3(conn/float64(n)), aplStr, lambdaCell(lambda/float64(n), approx))
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
