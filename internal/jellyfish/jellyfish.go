// Package jellyfish builds the random-graph baseline of the flat-tree paper
// (Singla et al., "Jellyfish: Networking Data Centers Randomly", NSDI'12)
// using exactly the same equipment as a fat-tree(k): 5k^2/4 switches with k
// ports each and k^3/4 servers. Servers are distributed uniformly across the
// switches and all remaining ports are wired as a uniform random graph.
package jellyfish

import (
	"fmt"

	"flattree/internal/graph"
	"flattree/internal/topo"
)

// Jellyfish is a constructed random-graph network.
type Jellyfish struct {
	K         int
	Net       *topo.Network
	Switches  []int // node IDs of all switches
	ServerIDs []int // node IDs of servers, by global server index
}

// New constructs a Jellyfish network with fat-tree(k) equipment. The seed
// fixes both the server spread and the random wiring. Switches keep the
// layer labels of the fat-tree boxes they repurpose (the labels carry no
// structural meaning here: all switches are equal in a random graph), and
// carry no pod assignment. Servers keep their fat-tree home-pod *label*
// (index / (k^2/4)) so that the paper's intra-pod comparisons can address
// "the same servers" across topologies.
func New(k int, seed uint64) (*Jellyfish, error) {
	if k < 4 || k%2 != 0 {
		return nil, fmt.Errorf("jellyfish: k must be even and >= 4, got %d", k)
	}
	half := k / 2
	numSwitches := half*half + k*k // (k/2)^2 cores + k pods * k switches
	numServers := k * k * k / 4
	rng := graph.NewRNG(seed)

	b := topo.NewBuilder(fmt.Sprintf("jellyfish(k=%d,seed=%d)", k, seed))
	// One link per server, and at most one per two remaining switch ports.
	b.Reserve(numSwitches+numServers, numServers+(numSwitches*k-numServers)/2)
	j := &Jellyfish{K: k}

	j.Switches = make([]int, 0, numSwitches)
	for c := 0; c < half*half; c++ {
		j.Switches = append(j.Switches, b.AddNode(topo.CoreSwitch, -1, c, k))
	}
	for p := 0; p < k; p++ {
		for i := 0; i < half; i++ {
			j.Switches = append(j.Switches, b.AddNode(topo.AggSwitch, -1, i, k))
		}
		for e := 0; e < half; e++ {
			j.Switches = append(j.Switches, b.AddNode(topo.EdgeSwitch, -1, e, k))
		}
	}

	// Spread servers uniformly: every switch gets floor(N/S), and a random
	// subset of switches gets one extra.
	base := numServers / numSwitches
	extra := numServers % numSwitches
	perSwitch := make([]int, numSwitches)
	for i := range perSwitch {
		perSwitch[i] = base
	}
	for _, i := range rng.Perm(numSwitches)[:extra] {
		perSwitch[i]++
	}

	podSize := k * k / 4
	j.ServerIDs = make([]int, 0, numServers)
	for si, sw := range j.Switches {
		for t := 0; t < perSwitch[si]; t++ {
			idx := len(j.ServerIDs)
			sv := b.AddNode(topo.Server, idx/podSize, idx, 1)
			j.ServerIDs = append(j.ServerIDs, sv)
			b.AddLink(sv, sw, topo.TagClos)
		}
	}

	// Random graph over the remaining ports.
	degrees := make([]int, numSwitches)
	for si := range j.Switches {
		degrees[si] = k - perSwitch[si]
	}
	rg, err := graph.BuildConnected(degrees, rng)
	if err != nil {
		return nil, fmt.Errorf("jellyfish: %w", err)
	}
	for _, e := range rg.Edges() {
		b.AddLink(j.Switches[e.A], j.Switches[e.B], topo.TagRandom)
	}

	j.Net = b.Build()
	return j, nil
}
