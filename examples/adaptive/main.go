// Adaptive conversion: the full §2.6 loop — measure, classify, convert —
// running against live TCP agents. A flat-tree starts as a Clos network; a
// hot-spot workload is simulated at flow level (netsim.Fluid), the
// controller classifies the measured flows (ctrl.Advise) and converts the
// network to the advised modes, and the same workload is replayed to show
// the flow-completion-time improvement. Then the workload shifts to small
// intra-pod clusters and the loop adapts again.
//
//	go run ./examples/adaptive
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"flattree/internal/core"
	"flattree/internal/ctrl"
	"flattree/internal/graph"
	"flattree/internal/netsim"
	"flattree/internal/routing"
)

const k = 8

func main() {
	ft, err := core.Build(core.Params{K: k})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	plant, err := ctrl.StartPlant(ctx, ft, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer plant.Close()
	controller := plant.Controller()
	fmt.Printf("flat-tree(k=%d) controller up, starting in Clos mode\n\n", k)

	// --- Phase 1: a hot-spot tenant appears. ---
	rng := graph.NewRNG(42)
	servers := ft.Net().Servers()
	hotspot := servers[0]
	phase1 := netsim.PoissonHotspot(servers, hotspot, 4.0, 1.0, 200, rng)

	fmt.Println("phase 1: hot-spot broadcast workload")
	before := measure(ft, phase1)
	fmt.Printf("  Clos mode:           mean FCT %.3f  p99 %.3f\n", before.MeanFCT, before.P99FCT)

	adapt(ctx, controller, ft, before)

	after := measure(ft, phase1)
	fmt.Printf("  converted (%s): mean FCT %.3f  p99 %.3f  (%.0f%% faster)\n\n",
		ft.Mode(0), after.MeanFCT, after.P99FCT, 100*(1-after.MeanFCT/before.MeanFCT))

	// --- Phase 2: the tenant mix shifts to small intra-pod clusters. ---
	podSize := k * k / 4
	var phase2 []netsim.Arrival
	for p := 0; p < k; p++ {
		podServers := servers[p*podSize : (p+1)*podSize]
		phase2 = append(phase2, netsim.PoissonPairs(podServers, 2.0, 1.0, 60, rng)...)
	}

	fmt.Println("phase 2: small intra-pod cluster workload")
	before2 := measure(ft, phase2)
	fmt.Printf("  %s mode: mean FCT %.3f  p99 %.3f\n", ft.Mode(0), before2.MeanFCT, before2.P99FCT)

	adapt(ctx, controller, ft, before2)

	after2 := measure(ft, phase2)
	fmt.Printf("  converted (%s):  mean FCT %.3f  p99 %.3f  (%.0f%% faster)\n",
		ft.Mode(0), after2.MeanFCT, after2.P99FCT, 100*(1-after2.MeanFCT/before2.MeanFCT))
}

// measure replays a workload on the current topology at flow level.
func measure(ft *core.FlatTree, arrivals []netsim.Arrival) netsim.FluidResult {
	nw := ft.Net()
	res, err := netsim.Fluid(context.Background(), nw, routing.NewKSP(nw, 8), arrivals)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// adapt feeds the measured flows to the controller's classifier and
// converts the network to the advised modes over the live agents.
func adapt(ctx context.Context, controller *ctrl.Controller, ft *core.FlatTree, measured netsim.FluidResult) {
	obs := make([]ctrl.FlowObservation, len(measured.Completed))
	for i, f := range measured.Completed {
		obs[i] = ctrl.FlowObservation{Src: f.Src, Dst: f.Dst, Bytes: f.Size}
	}
	modes, _, err := ctrl.Advise(ft, obs)
	if err != nil {
		log.Fatal(err)
	}
	if err := controller.Convert(ctx, modes); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  controller advice applied at epoch %d: %s\n", controller.Epoch(), summarize(modes))
}

func summarize(modes []core.Mode) string {
	counts := map[core.Mode]int{}
	for _, m := range modes {
		counts[m]++
	}
	return fmt.Sprintf("%d global-random, %d local-random, %d clos pods",
		counts[core.ModeGlobalRandom], counts[core.ModeLocalRandom], counts[core.ModeClos])
}
