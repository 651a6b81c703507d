// Control plane: drive topology conversions through the §2.6 centralized
// controller and per-pod converter agents over real TCP connections,
// including a failed conversion (one pod's converter driver rejects the
// stage) and the controller's all-or-nothing recovery.
//
//	go run ./examples/controlplane
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"flattree/internal/core"
	"flattree/internal/ctrl"
	"flattree/internal/topo"
)

const k = 6

func main() {
	ft, err := core.Build(core.Params{K: k})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// One agent per pod, each modelling that pod's converter hardware
	// with a 2ms switching latency.
	plant, err := ctrl.StartPlant(ctx, ft, 0, 2*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	defer plant.Close()
	controller := plant.Controller()
	fmt.Printf("controller up with %d pod agents (%d converters)\n\n",
		controller.NumAgents(), len(ft.Convs))

	convert := func(label string, modes []core.Mode) {
		plan, err := controller.Plan(modes)
		if err != nil {
			log.Fatal(err)
		}
		changes := 0
		for _, entries := range plan {
			changes += len(entries)
		}
		start := time.Now()
		err = controller.Convert(ctx, modes)
		if err != nil {
			fmt.Printf("%-26s FAILED after %v: %v\n", label, time.Since(start).Round(time.Millisecond), err)
			return
		}
		nw := controller.FlatTree().Net()
		st := nw.Stats()
		fmt.Printf("%-26s epoch=%d  %d configs changed in %v  links: clos=%d conv=%d side=%d\n",
			label, controller.Epoch(), changes, time.Since(start).Round(time.Millisecond),
			st.LinksByTag[topo.TagClos], st.LinksByTag[topo.TagConverter], st.LinksByTag[topo.TagSide])
	}

	convert("-> global random graph", uniform(core.ModeGlobalRandom))
	convert("-> back to Clos", uniform(core.ModeClos))

	// Inject a converter driver fault in pod 2: the two-phase protocol
	// aborts everywhere and the model stays consistent.
	fmt.Println("\ninjecting stage rejection at pod 2:")
	plant.Agent(2).RejectStage = true
	convert("-> local random graphs", uniform(core.ModeLocalRandom))
	fmt.Printf("model still in %s mode (epoch %d)\n\n",
		controller.FlatTree().Mode(0), controller.Epoch())

	plant.Agent(2).RejectStage = false
	fmt.Println("fault cleared, retrying:")
	convert("-> local random graphs", uniform(core.ModeLocalRandom))
}

func uniform(m core.Mode) []core.Mode {
	modes := make([]core.Mode, k)
	for i := range modes {
		modes[i] = m
	}
	return modes
}
