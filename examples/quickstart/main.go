// Quickstart: build a flat-tree, convert it between its operation modes,
// and compare it against the fat-tree and random-graph baselines built from
// the same equipment.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"flattree/internal/core"
	"flattree/internal/fattree"
	"flattree/internal/jellyfish"
	"flattree/internal/metrics"
	"flattree/internal/topo"
)

func main() {
	const k = 8

	// A flat-tree is a fat-tree(k) equipment set plus converter switches.
	// m 6-port and n 4-port converters tap each (edge, aggregation) switch
	// pair; the zero values pick the paper's profiled optimum
	// (m, n) = (k/8, 2k/8).
	ft, err := core.Build(core.Params{K: k})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flat-tree(k=%d): %d servers, %d switches, %d converter switches\n",
		k, ft.NumServers(), 5*k*k/4, len(ft.Convs))

	// The same equipment wired as the two fixed baselines.
	fat, err := fattree.New(k)
	if err != nil {
		log.Fatal(err)
	}
	rg, err := jellyfish.New(k, 42)
	if err != nil {
		log.Fatal(err)
	}

	show := func(name string, nw *topo.Network) {
		st, err := metrics.ServerPathLengths(nw, nw.Servers())
		if err != nil {
			log.Fatal(err)
		}
		s := nw.Stats()
		fmt.Printf("  %-28s links=%d  APL=%.3f  intra-pod APL=%.3f  max=%d\n",
			name, s.Links, st.Global, st.IntraPod, st.Max)
	}

	fmt.Println("\nbaselines:")
	show("fat-tree", fat.Net)
	show("random graph (jellyfish)", rg.Net)

	// Conversion is just a matter of converter configurations: no cables
	// move. Walk the flat-tree through its three uniform modes.
	fmt.Println("\nflat-tree conversions:")
	for _, mode := range []core.Mode{core.ModeClos, core.ModeGlobalRandom, core.ModeLocalRandom} {
		if err := ft.SetUniformMode(mode); err != nil {
			log.Fatal(err)
		}
		show("flat-tree/"+mode.String(), ft.Net())
	}

	// Hybrid operation: the network is organized into functionally
	// separate zones, each with its own topology (§2.6, §3.4).
	modes := make([]core.Mode, k)
	for p := range modes {
		if p < k/2 {
			modes[p] = core.ModeGlobalRandom
		} else {
			modes[p] = core.ModeLocalRandom
		}
	}
	if err := ft.SetModes(modes); err != nil {
		log.Fatal(err)
	}
	show("flat-tree/hybrid (half+half)", ft.Net())

	fmt.Println("\nNote how global-random mode matches the random graph's average")
	fmt.Println("path length within a few percent while remaining convertible back")
	fmt.Println("to a Clos network — the paper's headline result (Figure 5).")
}
