package experiments

import (
	"context"
	"fmt"

	"flattree/internal/core"
	"flattree/internal/mcf"
	"flattree/internal/parallel"
	"flattree/internal/topo"
	"flattree/internal/traffic"
)

// HybridRow is one measurement of the §3.4 hybrid-mode experiment.
type HybridRow struct {
	GlobalPods, LocalPods int
	// LambdaGlobal/LambdaLocal: each zone's standalone max concurrent flow
	// on the hybrid network.
	LambdaGlobal, LambdaLocal float64
	// RefGlobal/RefLocal: the corresponding complete networks' throughput
	// (all pods in that mode, full-network workload) — the paper's
	// comparison target.
	RefGlobal, RefLocal float64
	// Interference: joint concurrent flow with both zones' demands
	// pre-scaled by their standalone λ. 1.0 means the zones share the
	// core without hurting each other — the paper's headline claim.
	Interference float64
}

// Hybrid regenerates the §3.4 experiment: a flat-tree with two zones —
// approximated global random graph in one, per-pod local random graphs in
// the other — at proportions 10%..90%. Each zone receives the same traffic
// pattern as the corresponding complete network: broadcast/incast in
// 1000-server clusters (global zone), all-to-all in 20-server clusters
// (local zone), both placed with locality inside their zone.
//
// Mode flips mutate the shared flat-tree, so the reference solves and the
// per-proportion network snapshots are prepared sequentially; the nine
// proportions' cluster builds and MCF solves (three each) then fan out
// through the worker pool and are merged back in proportion order.
func Hybrid(ctx context.Context, cfg Config) (*Table, []HybridRow, error) {
	k := cfg.HybridK
	ft, err := core.BuildIn(core.Params{K: k}, core.ModeGlobalRandom)
	if err != nil {
		return nil, nil, err
	}

	// Reference: complete networks.
	refGlobal, err := completeRef(ctx, ft.Net(), BroadcastClusterSize, broadcastPattern, cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := ft.SetUniformMode(core.ModeLocalRandom); err != nil {
		return nil, nil, err
	}
	refLocal, err := completeRef(ctx, ft.Net(), AllToAllClusterSize, allToAllPattern, cfg)
	if err != nil {
		return nil, nil, err
	}

	t := &Table{
		Title: fmt.Sprintf("§3.4 hybrid flat-tree (k=%d): per-zone throughput vs complete networks", k),
		Header: []string{"global-pods", "local-pods",
			"zoneG", "zoneG/refG", "zoneL", "zoneL/refL", "interference"},
	}

	// Snapshot each proportion's network up front: SetModes rewires ft in
	// place, but every Net() call returns an immutable snapshot, so the
	// solves below can run concurrently over the collected cases.
	type hybridCase struct {
		zg int
		nw *topo.Network
	}
	var cases []hybridCase
	for tenths := 1; tenths <= 9; tenths++ {
		zg := (k*tenths + 5) / 10
		if zg < 1 || zg > k-1 {
			continue
		}
		modes := make([]core.Mode, k)
		for p := 0; p < k; p++ {
			if p < zg {
				modes[p] = core.ModeGlobalRandom
			} else {
				modes[p] = core.ModeLocalRandom
			}
		}
		if err := ft.SetModes(modes); err != nil {
			return nil, nil, err
		}
		cases = append(cases, hybridCase{zg: zg, nw: ft.Net()})
	}

	rows, err := parallel.MapCtx(ctx, len(cases), cfg.workers(), func(i int) (HybridRow, error) {
		zg, nw := cases[i].zg, cases[i].nw

		// Zone server sets (servers keep home-pod labels).
		var globalServers, localServers []int
		for _, sv := range nw.Servers() {
			if nw.Nodes[sv].Pod < zg {
				globalServers = append(globalServers, sv)
			} else {
				localServers = append(localServers, sv)
			}
		}
		gcl, err := traffic.MakeClusters(nw, globalServers, traffic.Spec{
			ClusterSize: BroadcastClusterSize, Placement: traffic.Locality, Seed: cfg.Seed})
		if err != nil {
			return HybridRow{}, err
		}
		lcl, err := traffic.MakeClusters(nw, localServers, traffic.Spec{
			ClusterSize: AllToAllClusterSize, Placement: traffic.Locality, Seed: cfg.Seed})
		if err != nil {
			return HybridRow{}, err
		}
		gComms := broadcastPattern(gcl)
		lComms := allToAllPattern(lcl)

		resG, err := mcf.MaxConcurrentFlow(ctx, nw, gComms, mcf.Options{Epsilon: cfg.Epsilon})
		if err != nil {
			return HybridRow{}, err
		}
		resL, err := mcf.MaxConcurrentFlow(ctx, nw, lComms, mcf.Options{Epsilon: cfg.Epsilon})
		if err != nil {
			return HybridRow{}, err
		}

		// Joint solve with each zone's demands scaled to its standalone
		// achievable rates (demand × standalone λ): an interference factor
		// of 1 then means both zones sustain their standalone throughput
		// simultaneously.
		var joint []mcf.Commodity
		for _, c := range gComms {
			joint = append(joint, mcf.Commodity{Src: c.Src, Dst: c.Dst, Demand: c.Demand * resG.Lambda})
		}
		for _, c := range lComms {
			joint = append(joint, mcf.Commodity{Src: c.Src, Dst: c.Dst, Demand: c.Demand * resL.Lambda})
		}
		resJ, err := mcf.MaxConcurrentFlow(ctx, nw, joint, mcf.Options{Epsilon: cfg.Epsilon})
		if err != nil {
			return HybridRow{}, err
		}

		return HybridRow{
			GlobalPods: zg, LocalPods: k - zg,
			LambdaGlobal: resG.Lambda, LambdaLocal: resL.Lambda,
			RefGlobal: refGlobal, RefLocal: refLocal,
			Interference: resJ.Lambda,
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}

	for _, row := range rows {
		t.AddRow(fmt.Sprint(row.GlobalPods), fmt.Sprint(row.LocalPods),
			f4(row.LambdaGlobal), f3(row.LambdaGlobal/refGlobal),
			f4(row.LambdaLocal), f3(row.LambdaLocal/refLocal),
			f3(row.Interference))
	}
	return t, rows, nil
}

// completeRef computes the throughput of a complete (single-mode) network
// under the full-network version of a workload.
func completeRef(ctx context.Context, nw *topo.Network, clusterSize int,
	pattern func([]traffic.Cluster) []mcf.Commodity, cfg Config) (float64, error) {
	res, err := throughput(ctx, nw, clusterSize, traffic.Locality, pattern, cfg.Seed, cfg.Epsilon, cfg.SolveBudget)
	if err != nil {
		return 0, err
	}
	return res.Lambda, nil
}
