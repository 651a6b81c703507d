package flattree_test

import (
	"context"
	"math"
	"testing"

	"flattree/internal/core"
	"flattree/internal/fattree"
	"flattree/internal/graph"
	"flattree/internal/mcf"
	"flattree/internal/metrics"
	"flattree/internal/netsim"
	"flattree/internal/routing"
	"flattree/internal/traffic"
)

// TestClosModeThroughputEqualsFatTree: flat-tree in Clos mode is
// link-identical to fat-tree, so the whole pipeline — placement, commodity
// generation, MCF — must produce identical throughput on both.
func TestClosModeThroughputEqualsFatTree(t *testing.T) {
	k := 6
	ft, err := core.Build(core.Params{K: k})
	if err != nil {
		t.Fatal(err)
	}
	fat, err := fattree.New(k)
	if err != nil {
		t.Fatal(err)
	}
	clusters1, err := traffic.MakeClusters(ft.Net(), ft.Net().Servers(), traffic.Spec{
		ClusterSize: 20, Placement: traffic.Locality, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	clusters2, err := traffic.MakeClusters(fat.Net, fat.Net.Servers(), traffic.Spec{
		ClusterSize: 20, Placement: traffic.Locality, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := mcf.MaxConcurrentFlow(context.Background(), ft.Net(), traffic.AllToAllCommodities(clusters1, 20), mcf.Options{Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := mcf.MaxConcurrentFlow(context.Background(), fat.Net, traffic.AllToAllCommodities(clusters2, 20), mcf.Options{Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.Lambda-r2.Lambda) > 1e-12 {
		t.Errorf("Clos-mode flat-tree λ %g != fat-tree λ %g", r1.Lambda, r2.Lambda)
	}
}

// TestPacketLatencyMatchesPathLength: at near-zero load, mean packet
// latency must equal (mean switch hops) × (transmission + propagation), and
// the simulator's mean hop count must match the analytic server-pair
// distance (APL − 2 access hops) within sampling error — three independent
// subsystems (metrics BFS, routing tables, packet simulation) agreeing.
func TestPacketLatencyMatchesPathLength(t *testing.T) {
	ft, err := core.Build(core.Params{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := ft.SetUniformMode(core.ModeGlobalRandom); err != nil {
		t.Fatal(err)
	}
	nw := ft.Net()
	st, err := metrics.ServerPathLengths(nw, nw.Servers())
	if err != nil {
		t.Fatal(err)
	}
	wantHops := st.Global - 2

	rng := graph.NewRNG(9)
	servers := nw.Servers()
	// One packet at a time (rate so low nothing queues), uniform pairs.
	pkts := netsim.PoissonPackets(servers, 0.01, 3000, 1, rng)
	res, err := netsim.Packets(context.Background(), nw, routing.BuildTable(nw), pkts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 {
		t.Fatalf("drops at idle load: %+v", res)
	}
	if math.Abs(res.MeanHops-wantHops) > 0.1 {
		t.Errorf("packet-run mean hops %.3f vs metrics %.3f", res.MeanHops, wantHops)
	}
	// Latency per hop = 1 (transmission) + 0.05 (propagation).
	if math.Abs(res.MeanLatency-res.MeanHops*1.05) > 1e-6 {
		t.Errorf("latency %.4f != hops %.4f x 1.05", res.MeanLatency, res.MeanHops)
	}
}

// TestMCFRespectsCutBound: for a hot-spot workload, λ × total demand can
// never exceed the hot-spot switch's degree (a cut bound computable from
// the topology alone), and the FPTAS dual bound must also respect it.
func TestMCFRespectsCutBound(t *testing.T) {
	ft, err := core.Build(core.Params{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := ft.SetUniformMode(core.ModeGlobalRandom); err != nil {
		t.Fatal(err)
	}
	nw := ft.Net()
	servers := nw.Servers()
	hot := servers[0]
	var comms []mcf.Commodity
	for _, sv := range servers[1:100] {
		comms = append(comms, mcf.Commodity{Src: hot, Dst: sv, Demand: 1})
	}
	res, err := mcf.MaxConcurrentFlow(context.Background(), nw, comms, mcf.Options{Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// The hot server's host switch degree (switch-switch links) bounds
	// the total egress.
	host := nw.HostSwitch(hot)
	degree := 0.0
	for _, l := range nw.Links {
		if (l.A == host || l.B == host) &&
			nw.Nodes[l.A].Kind.IsSwitch() && nw.Nodes[l.B].Kind.IsSwitch() {
			degree++
		}
	}
	// Demands whose destination shares the hot switch don't cross the cut;
	// all 99 here are spread across the fabric, at most a few co-located.
	if res.Lambda*99 > degree+5 {
		t.Errorf("λ·demand %.2f exceeds cut bound ~%g", res.Lambda*99, degree)
	}
	if res.UpperBound*99 > degree+10 {
		t.Errorf("dual bound %.4f inconsistent with cut bound", res.UpperBound)
	}
}

// TestConversionPreservesEquipment: converting through every mode and back
// to Clos returns exactly the fat-tree link multiset (no drift across
// repeated conversions).
func TestConversionPreservesEquipment(t *testing.T) {
	k := 8
	ft, err := core.Build(core.Params{K: k})
	if err != nil {
		t.Fatal(err)
	}
	fat, err := fattree.New(k)
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 3; cycle++ {
		for _, mode := range []core.Mode{core.ModeGlobalRandom, core.ModeLocalRandom, core.ModeClos} {
			if err := ft.SetUniformMode(mode); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := make(map[[2]int]int)
	for _, l := range ft.Net().Links {
		a, b := l.A, l.B
		if a > b {
			a, b = b, a
		}
		got[[2]int{a, b}]++
	}
	for _, l := range fat.Net.Links {
		a, b := l.A, l.B
		if a > b {
			a, b = b, a
		}
		got[[2]int{a, b}]--
	}
	for link, c := range got {
		if c != 0 {
			t.Fatalf("link %v drifted after conversion cycles (count %d)", link, c)
		}
	}
}
