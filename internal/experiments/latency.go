package experiments

import (
	"context"
	"fmt"

	"flattree/internal/core"
	"flattree/internal/graph"
	"flattree/internal/netsim"
	"flattree/internal/parallel"
	"flattree/internal/routing"
	"flattree/internal/topo"
)

// Latency runs the packet-level simulator over uniform random traffic on
// fat-tree, flat-tree (each mode), and the random graph at one k, turning
// the Figure-5 path-length differences into observable packet latency.
// Load is the per-unit-time packet injection rate relative to the server
// count. The targets are collected
// sequentially (mode flips mutate the flat-tree, though each Net() snapshot
// is immutable), then the five simulations — each with its own RNG seeded
// from cfg.Seed — run concurrently.
func Latency(ctx context.Context, cfg Config, k int, load float64) (*Table, error) {
	if !(load > 0) {
		return nil, fmt.Errorf("latency: load %g must be positive", load)
	}
	s, err := buildSuite(k, cfg.Seed, core.ModeClos, false)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("packet latency under uniform traffic, k=%d, load %.2f pkt/server/unit", k, load),
		Header: []string{"topology", "delivered", "dropped",
			"mean-latency", "p99-latency", "mean-hops", "utilization"},
	}
	type target struct {
		name string
		nw   *topo.Network
	}
	targets := []target{
		{"fat-tree", s.fat.Net},
		{"random-graph", s.rg.Net},
	}
	for _, mode := range []core.Mode{core.ModeClos, core.ModeGlobalRandom, core.ModeLocalRandom} {
		if err := s.flat.SetUniformMode(mode); err != nil {
			return nil, err
		}
		targets = append(targets, target{"flat-tree/" + mode.String(), s.flat.Net()})
	}
	rows, err := parallel.MapCtx(ctx, len(targets), cfg.workers(), func(i int) ([]string, error) {
		tg := targets[i]
		servers := tg.nw.Servers()
		rate := load * float64(len(servers))
		count := 40 * len(servers)
		rng := graph.NewRNG(cfg.Seed)
		pkts := netsim.PoissonPackets(servers, rate, count, 8, rng)
		res, err := netsim.Packets(ctx, tg.nw, routing.BuildTable(tg.nw), pkts, netsim.PacketConfig{})
		if err != nil {
			return nil, fmt.Errorf("latency %s: %w", tg.name, err)
		}
		return []string{tg.name,
			fmt.Sprint(res.Delivered), fmt.Sprint(res.Dropped),
			f3(res.MeanLatency), f3(res.P99Latency), f3(res.MeanHops), f3(res.Utilization)}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}
