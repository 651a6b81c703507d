package experiments

import (
	"context"
	"fmt"
	"net"
	"sort"
	"time"

	"flattree/internal/core"
	"flattree/internal/ctrl"
	"flattree/internal/faults"
	"flattree/internal/graph"
	"flattree/internal/mcf"
	"flattree/internal/parallel"
	"flattree/internal/topo"
	"flattree/internal/traffic"
)

// healStage is one point of a self-heal trajectory: the effective network
// at a named moment of the repair.
type healStage struct {
	name string
	nw   *topo.Network
}

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

	stages := make([][]healStage, trials)
	maxWin := 0
	for tr := 0; tr < trials; tr++ {
		st, err := runSelfHealTrial(ctx, k, nDead, batchSize, seeds.Seed(uint64(tr)))
		if err != nil {
			return nil, fmt.Errorf("selfheal trial %d: %w", tr, err)
		}
		stages[tr] = st
		if w := len(st) - 3; w > maxWin {
			maxWin = w
		}
	}

	canon := []string{"pre-failure", "failed"}
	for i := 1; i <= maxWin; i++ {
		canon = append(canon, fmt.Sprintf("window-%d", i))
	}
	canon = append(canon, "recovered")
	netOf := make([]map[string]*topo.Network, trials)
	for tr := range stages {
		netOf[tr] = make(map[string]*topo.Network, len(stages[tr]))
		for _, st := range stages[tr] {
			netOf[tr][st.name] = st.nw
		}
	}

	type healCell struct {
		conn, apl, lambda  float64
		finite, approx, ok bool
	}
	results, err := parallel.MapCtx(ctx, trials, cfg.workers(), func(tr int) ([]healCell, error) {
		cells := make([]healCell, len(canon))
		for si, name := range canon {
			nw := netOf[tr][name]
			if nw == nil {
				continue // this trial's repair used fewer windows
			}
			rep, err := faults.Analyze(nw)
			if err != nil {
				return nil, fmt.Errorf("selfheal %s trial=%d: %w", name, tr, err)
			}
			c := healCell{conn: rep.LargestComponentFrac, apl: rep.APL, finite: rep.APL > 0, ok: true}
			comms := traffic.Permutation(faults.LargestComponent(nw), seeds.Seed(1<<32|uint64(tr)))
			if len(comms) > 0 {
				res, err := mcf.MaxConcurrentFlow(ctx, nw, comms, mcf.Options{
					Epsilon: cfg.Epsilon, SkipDualBound: true, TimeBudget: cfg.SolveBudget})
				if err != nil {
					return nil, fmt.Errorf("selfheal %s trial=%d: %w", name, tr, err)
				}
				c.lambda, c.approx = res.Lambda, res.Approximate
			}
			cells[si] = c
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
// trajectory's stage networks.
func runSelfHealTrial(ctx context.Context, k, nDead, batchSize int, seed uint64) ([]healStage, error) {
	ft, err := core.BuildIn(core.Params{K: k}, core.ModeGlobalRandom)
	if err != nil {
		return nil, err
	}
	pre := ft.Net()
	c := ctrl.NewController(ft)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sctx, cancelServe := context.WithCancel(ctx)
	defer cancelServe()
	go c.Serve(sctx, l)
	defer c.Close()

	cancels := make([]context.CancelFunc, k)
	defer func() {
		for _, cancel := range cancels {
			if cancel != nil {
				cancel()
			}
		}
	}()
	for p := 0; p < k; p++ {
		a := ctrl.NewAgent(p, ctrl.ConfigsForPod(ft, p))
		a.HeartbeatInterval = 5 * time.Millisecond
		actx, cancel := context.WithCancel(ctx)
		cancels[p] = cancel
		//flatlint:ignore ignorederr agent exit races trial teardown; liveness is asserted via WaitForAgents/WaitForFailures
		go func() { _ = a.Run(actx, l.Addr().String()) }()
	}
	wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
	defer wcancel()
	if err := c.WaitForAgents(wctx, k); err != nil {
		return nil, err
	}

	// Kill a seeded set of agents: their heartbeats stop, and the
	// controller's deadline monitor declares the pods dead.
	dead := append([]int(nil), graph.NewRNG(seed).Perm(k)[:nDead]...)
	sort.Ints(dead)
	for _, p := range dead {
		cancels[p]()
	}
	const deadline = 60 * time.Millisecond
	if _, err := c.WaitForFailures(wctx, dead, deadline); err != nil {
		return nil, err
	}

	rep, err := c.SelfHeal(ctx, dead, ctrl.SelfHealOptions{
		Seed: seed, BatchSize: batchSize, RequireConnected: true})
	if err != nil {
		return nil, err
	}
	stages := []healStage{{"pre-failure", pre}, {"failed", rep.Degraded}}
	for i, w := range rep.Windows {
		stages = append(stages, healStage{fmt.Sprintf("window-%d", i+1), w.Dark})
	}
	stages = append(stages, healStage{"recovered", rep.Healed})
	return stages, nil
}
