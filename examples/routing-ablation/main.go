// Routing ablation: §2.6 prescribes ECMP for Clos mode and k-shortest-paths
// for the random-graph modes, while the paper's throughput evaluation
// assumes optimal routing. This example quantifies the gap: max-min fair
// throughput over ECMP and KSP path systems versus the optimal-routing
// concurrent-flow LP, on the same hot-spot workload, in both flat-tree
// modes.
//
//	go run ./examples/routing-ablation
package main

import (
	"context"
	"fmt"
	"log"

	"flattree/internal/core"
	"flattree/internal/mcf"
	"flattree/internal/netsim"
	"flattree/internal/routing"
	"flattree/internal/traffic"
)

func main() {
	const k = 8
	ft, err := core.Build(core.Params{K: k})
	if err != nil {
		log.Fatal(err)
	}

	for _, mode := range []core.Mode{core.ModeClos, core.ModeGlobalRandom} {
		if err := ft.SetUniformMode(mode); err != nil {
			log.Fatal(err)
		}
		nw := ft.Net()
		clusters, err := traffic.MakeClusters(nw, nw.Servers(), traffic.Spec{
			ClusterSize: 1000, Placement: traffic.Locality, Seed: 3})
		if err != nil {
			log.Fatal(err)
		}
		comms := traffic.BroadcastCommodities(clusters, 1000)

		fmt.Printf("flat-tree(k=%d) in %s mode, hot-spot broadcast workload:\n", k, mode)
		optimal, err := mcf.MaxConcurrentFlow(context.Background(), nw, comms, mcf.Options{Epsilon: 0.05})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  optimal routing (LP):      λ = %.4f (dual gap %.1f%%)\n",
			optimal.Lambda, 100*optimal.DualGap())

		schemes := []routing.Scheme{
			routing.NewECMP(nw, 32),
			routing.NewKSP(nw, 8),
			routing.NewKSP(nw, 4),
		}
		for _, s := range schemes {
			res, err := netsim.MaxMin(nw, s, comms)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-8s max-min routing:  λ = %.4f (%.0f%% of optimal, %d subflows)\n",
				s.Name(), res.Lambda, 100*res.Lambda/optimal.Lambda, res.Subflows)
		}
		fmt.Println()
	}
}
