// Package flattree_test holds the benchmark harness that regenerates every
// table and figure of the flat-tree paper's evaluation (§3). Each
// BenchmarkFigN runs the corresponding experiment driver and reports the
// headline series as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper end to end at laptop scale; cmd/flatsim runs the
// same drivers at the paper's full k=32 scale. Ablation benchmarks cover
// the design choices DESIGN.md calls out: wiring pattern 1 vs 2, ring vs
// line side cabling, FPTAS accuracy, and practical (ECMP/KSP) versus
// optimal routing.
package flattree_test

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"flattree/internal/core"
	"flattree/internal/ctrl"
	"flattree/internal/experiments"
	"flattree/internal/fattree"
	"flattree/internal/graph"
	"flattree/internal/jellyfish"
	"flattree/internal/mcf"
	"flattree/internal/metrics"
	"flattree/internal/netsim"
	"flattree/internal/routing"
	"flattree/internal/topo"
	"flattree/internal/traffic"
	"flattree/internal/twostage"
)

func cfgUpTo(kmax int, eps float64) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.KMax = kmax
	cfg.Epsilon = eps
	return cfg
}

// reportLast parses the named columns of a table's last row into benchmark
// metrics.
func reportLast(b *testing.B, t *experiments.Table, cols map[string]int) {
	b.Helper()
	if len(t.Rows) == 0 {
		b.Fatalf("table %q has no rows; the sweep produced no data", t.Title)
	}
	row := t.Rows[len(t.Rows)-1]
	for name, idx := range cols {
		v, err := strconv.ParseFloat(row[idx], 64)
		if err != nil {
			b.Fatalf("column %d = %q: %v", idx, row[idx], err)
		}
		b.ReportMetric(v, name)
	}
}

// BenchmarkFig5 regenerates Figure 5 (network-wide APL sweep) and reports
// the k=16 series: fat-tree, random graph, and flat-tree at the paper's
// chosen (m, n) = (k/8, 2k/8).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig5(context.Background(), cfgUpTo(16, 0.1))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportLast(b, t, map[string]int{"fat_apl": 1, "rg_apl": 2, "flat_apl": 4})
		}
	}
}

// BenchmarkFig6 regenerates Figure 6 (intra-pod APL sweep).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig6(context.Background(), cfgUpTo(16, 0.1))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportLast(b, t, map[string]int{"flat_apl": 1, "fat_apl": 2, "rg_apl": 3, "twostage_apl": 4})
		}
	}
}

// BenchmarkFig7 regenerates Figure 7 (broadcast/incast throughput) on a
// reduced sweep (k <= 10 keeps the LP solves in benchmark time; flatsim
// -kmax 32 runs the full figure).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig7(context.Background(), cfgUpTo(10, 0.1))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportLast(b, t, map[string]int{"fat_tput": 1, "flat_tput": 3, "rg_tput": 5})
		}
	}
}

// BenchmarkFig8 regenerates Figure 8 (all-to-all throughput).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig8(context.Background(), cfgUpTo(8, 0.12))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportLast(b, t, map[string]int{
				"fat_tput": 1, "flat_tput": 3, "twostage_tput": 5, "rg_tput": 7})
		}
	}
}

// BenchmarkHybrid regenerates the §3.4 hybrid-zone experiment and reports
// the worst per-zone ratio to the complete-network reference plus the
// worst interference factor across proportions.
func BenchmarkHybrid(b *testing.B) {
	cfg := cfgUpTo(8, 0.12)
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Hybrid(context.Background(), cfg, 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			worstG, worstL, worstI := 1e9, 1e9, 1e9
			for _, r := range rows {
				if v := r.LambdaGlobal / r.RefGlobal; v < worstG {
					worstG = v
				}
				if v := r.LambdaLocal / r.RefLocal; v < worstL {
					worstL = v
				}
				if r.Interference < worstI {
					worstI = r.Interference
				}
			}
			b.ReportMetric(worstG, "worst_zoneG_ratio")
			b.ReportMetric(worstL, "worst_zoneL_ratio")
			b.ReportMetric(worstI, "worst_interference")
		}
	}
}

// BenchmarkProfile runs the §2.4 (m, n) profiling procedure at k=16.
func BenchmarkProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, res, err := experiments.Profile(context.Background(), cfgUpTo(16, 0.1), 16)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.BestM), "best_m")
			b.ReportMetric(float64(res.BestN), "best_n")
			b.ReportMetric(res.BestAPL, "best_apl")
		}
	}
}

// BenchmarkAblationWiringPattern compares pod-core wiring patterns 1 and 2
// (§2.3) by network-wide APL at k=16, where pattern 2's rotation is coprime
// and should win.
func BenchmarkAblationWiringPattern(b *testing.B) {
	for _, pat := range []core.Pattern{core.Pattern1, core.Pattern2} {
		b.Run(pat.String(), func(b *testing.B) {
			var apl float64
			for i := 0; i < b.N; i++ {
				ft, err := core.Build(core.Params{K: 16, Pattern: pat})
				if err != nil {
					b.Fatal(err)
				}
				if err := ft.SetUniformMode(core.ModeGlobalRandom); err != nil {
					b.Fatal(err)
				}
				apl, err = metrics.AveragePathLength(ft.Net())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(apl, "apl")
		})
	}
}

// BenchmarkAblationRingVsLine compares wrap-around versus open inter-pod
// side cabling (a DESIGN.md decision the paper leaves open).
func BenchmarkAblationRingVsLine(b *testing.B) {
	for _, line := range []bool{false, true} {
		name := "ring"
		if line {
			name = "line"
		}
		b.Run(name, func(b *testing.B) {
			var apl float64
			for i := 0; i < b.N; i++ {
				ft, err := core.Build(core.Params{K: 16, Line: line})
				if err != nil {
					b.Fatal(err)
				}
				if err := ft.SetUniformMode(core.ModeGlobalRandom); err != nil {
					b.Fatal(err)
				}
				apl, err = metrics.AveragePathLength(ft.Net())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(apl, "apl")
		})
	}
}

// BenchmarkAblationEpsilon measures the FPTAS accuracy/runtime trade-off on
// a fixed two-hot-spot broadcast instance: k = 8 split into two 64-server
// clusters. (Figure 7's own cells at k ≤ 16 have a single hot spot, which the
// solver answers exactly by max-flow at any ε.)
func BenchmarkAblationEpsilon(b *testing.B) {
	ft, err := core.Build(core.Params{K: 8})
	if err != nil {
		b.Fatal(err)
	}
	if err := ft.SetUniformMode(core.ModeGlobalRandom); err != nil {
		b.Fatal(err)
	}
	nw := ft.Net()
	clusters, err := traffic.MakeClusters(nw, nw.Servers(), traffic.Spec{
		ClusterSize: 64, Placement: traffic.Locality, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	comms := traffic.BroadcastCommodities(clusters, 64)
	for _, eps := range []float64{0.05, 0.1, 0.2} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			var res mcf.Result
			for i := 0; i < b.N; i++ {
				res, err = mcf.MaxConcurrentFlow(context.Background(), nw, comms, mcf.Options{Epsilon: eps})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Lambda, "lambda")
			b.ReportMetric(res.DualGap(), "dual_gap")
			b.ReportMetric(float64(res.Dijkstras), "dijkstras")
		})
	}
}

// BenchmarkAblationRouting compares practical routing schemes (§2.6)
// against optimal routing on the fig7 workload in global-random mode.
func BenchmarkAblationRouting(b *testing.B) {
	ft, err := core.Build(core.Params{K: 8})
	if err != nil {
		b.Fatal(err)
	}
	if err := ft.SetUniformMode(core.ModeGlobalRandom); err != nil {
		b.Fatal(err)
	}
	nw := ft.Net()
	clusters, err := traffic.MakeClusters(nw, nw.Servers(), traffic.Spec{
		ClusterSize: 1000, Placement: traffic.Locality, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	mcfComms := traffic.BroadcastCommodities(clusters, 1000)
	b.Run("optimal", func(b *testing.B) {
		var res mcf.Result
		for i := 0; i < b.N; i++ {
			res, err = mcf.MaxConcurrentFlow(context.Background(), nw, mcfComms, mcf.Options{Epsilon: 0.1})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(res.Lambda, "lambda")
	})
	for _, kk := range []int{4, 8} {
		b.Run(fmt.Sprintf("ksp%d", kk), func(b *testing.B) {
			var res netsim.MaxMinResult
			for i := 0; i < b.N; i++ {
				res, err = netsim.MaxMin(nw, routing.NewKSP(nw, kk), mcfComms)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Lambda, "lambda")
		})
	}
	b.Run("ecmp", func(b *testing.B) {
		var res netsim.MaxMinResult
		for i := 0; i < b.N; i++ {
			res, err = netsim.MaxMin(nw, routing.NewECMP(nw, 32), mcfComms)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(res.Lambda, "lambda")
	})
}

// BenchmarkBuildTopologies measures raw construction cost per topology.
func BenchmarkBuildTopologies(b *testing.B) {
	for _, k := range []int{16, 32} {
		_, n := core.DefaultMN(k)
		for _, c := range []struct {
			name  string
			build func(i int) error
		}{
			{"fattree", func(int) error { _, err := fattree.New(k); return err }},
			{"jellyfish", func(i int) error { _, err := jellyfish.New(k, uint64(i)); return err }},
			{"twostage", func(i int) error { _, err := twostage.New(k, n, uint64(i)); return err }},
			{"flattree", func(int) error { _, err := core.Build(core.Params{K: k}); return err }},
			{"flattree-global", func(int) error {
				_, err := core.BuildIn(core.Params{K: k}, core.ModeGlobalRandom)
				return err
			}},
		} {
			b.Run(fmt.Sprintf("%s/k=%d", c.name, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := c.build(i); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkConversion measures a full mode flip (reconfiguration plus
// effective-network rebuild), the operation the §2.6 controller triggers.
func BenchmarkConversion(b *testing.B) {
	for _, k := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			ft, err := core.Build(core.Params{K: k})
			if err != nil {
				b.Fatal(err)
			}
			modes := []core.Mode{core.ModeGlobalRandom, core.ModeClos}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ft.SetUniformMode(modes[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkControlPlanePlan measures controller planning (diff computation)
// for a full-fabric conversion at the paper's hybrid scale, k=30.
func BenchmarkControlPlanePlan(b *testing.B) {
	ft, err := core.Build(core.Params{K: 30})
	if err != nil {
		b.Fatal(err)
	}
	c := ctrl.NewController(ft)
	modes := make([]core.Mode, 30)
	for i := range modes {
		if i < 15 {
			modes[i] = core.ModeGlobalRandom
		} else {
			modes[i] = core.ModeLocalRandom
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Plan(modes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLatency runs the packet-level simulator on uniform traffic in
// Clos versus global-random mode, reporting the mean latency and hop count
// — the dynamic face of Figure 5.
func BenchmarkLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Latency(context.Background(), cfgUpTo(8, 0.1), 8, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			get := func(row, col int) float64 {
				v, err := strconv.ParseFloat(t.Rows[row][col], 64)
				if err != nil {
					b.Fatal(err)
				}
				return v
			}
			b.ReportMetric(get(0, 3), "fat_latency")
			b.ReportMetric(get(3, 3), "flatglobal_latency")
			b.ReportMetric(get(0, 5), "fat_hops")
			b.ReportMetric(get(3, 5), "flatglobal_hops")
		}
	}
}

// BenchmarkFaults runs the failure-robustness experiment.
func BenchmarkFaults(b *testing.B) {
	cfg := cfgUpTo(8, 0.1)
	cfg.Trials = 2
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Faults(context.Background(), cfg, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelfHeal runs the self-heal trajectory on the perf ledger's
// ctrl-heal scenario: k = 8, a quarter of the pod agents killed, one pod
// re-aimed per dark window, two trials scored on two workers.
func BenchmarkSelfHeal(b *testing.B) {
	cfg := cfgUpTo(8, 0.1)
	cfg.Trials = 2
	cfg.Parallelism = 2
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SelfHeal(context.Background(), cfg, 8, 0.25, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynsimFCT measures the fluid simulator on the adaptive-loop
// workload, reporting mean FCT in Clos vs global-random mode.
func BenchmarkDynsimFCT(b *testing.B) {
	ft, err := core.Build(core.Params{K: 8})
	if err != nil {
		b.Fatal(err)
	}
	run := func(mode core.Mode) float64 {
		if err := ft.SetUniformMode(mode); err != nil {
			b.Fatal(err)
		}
		nw := ft.Net()
		servers := nw.Servers()
		arr := netsim.PoissonHotspot(servers, servers[0], 4.0, 1.0, 150, graph.NewRNG(11))
		res, err := netsim.Fluid(context.Background(), nw, routing.NewKSP(nw, 8), arr)
		if err != nil {
			b.Fatal(err)
		}
		return res.MeanFCT
	}
	var clos, global float64
	for i := 0; i < b.N; i++ {
		clos = run(core.ModeClos)
		global = run(core.ModeGlobalRandom)
	}
	b.ReportMetric(clos, "clos_fct")
	b.ReportMetric(global, "global_fct")
}

// BenchmarkAPL measures the server-pair path-length computation at paper
// scale on the three shapes Figures 5 and 6 sweep: fat-tree (servers on
// edge switches only, every hosting switch equally loaded), Jellyfish (no
// pod structure in the fabric) and flat-tree in global-random mode (servers
// spread over edge, aggregation and core switches).
func BenchmarkAPL(b *testing.B) {
	for _, k := range []int{16, 32} {
		nets := []struct {
			name  string
			build func() (*topo.Network, error)
		}{
			{"fat-tree", func() (*topo.Network, error) {
				f, err := fattree.New(k)
				if err != nil {
					return nil, err
				}
				return f.Net, nil
			}},
			{"jellyfish", func() (*topo.Network, error) {
				j, err := jellyfish.New(k, 1)
				if err != nil {
					return nil, err
				}
				return j.Net, nil
			}},
			{"flat-tree", func() (*topo.Network, error) {
				ft, err := core.Build(core.Params{K: k})
				if err != nil {
					return nil, err
				}
				if err := ft.SetUniformMode(core.ModeGlobalRandom); err != nil {
					return nil, err
				}
				return ft.Net(), nil
			}},
		}
		for _, tc := range nets {
			b.Run(fmt.Sprintf("%s/k=%d", tc.name, k), func(b *testing.B) {
				nw, err := tc.build()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := metrics.ServerPathLengths(nw, nw.Servers()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
