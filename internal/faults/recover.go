package faults

import (
	"flattree/internal/graph"
	"flattree/internal/topo"
)

// DefaultRewirable is the recovery policy for convertible topologies:
// converter-created effective links (TagConverter, TagSide) and random
// links (TagRandom) can be torn down and re-aimed, because the underlying
// port sits behind a converter or was placed by a randomized construction
// in the first place. Original Clos wiring (TagClos) is fixed cabling and
// stays put.
func DefaultRewirable(t topo.LinkTag) bool {
	return t == topo.TagConverter || t == topo.TagSide || t == topo.TagRandom
}

// RewirableNone is the recovery policy for static topologies such as the
// fat-tree: no link can be rewired, so Recover is a no-op. Comparing this
// against DefaultRewirable on the same failures is exactly the §5
// self-recovery argument for convertibility.
func RewirableNone(topo.LinkTag) bool { return false }

// RecoverOptions configures a recovery pass.
type RecoverOptions struct {
	// Seed drives the randomized rewiring. The same (Outcome, Seed)
	// always produces the same recovered network.
	Seed uint64
	// Rewirable decides, by tag, which freed ports may be re-aimed and
	// which surviving links a recovery swap may break. Nil means
	// DefaultRewirable.
	Rewirable func(topo.LinkTag) bool
}

// RecoverReport quantifies what a recovery pass did.
type RecoverReport struct {
	// FreedPorts is how many rewirable ports the failure left behind on
	// surviving switches.
	FreedPorts int
	// AddedLinks and BrokenLinks count the new random links wired in and
	// the surviving links the edge swaps consumed while doing so.
	AddedLinks, BrokenLinks int
	// Added lists each new link's endpoint node IDs (in the degraded
	// network's numbering, which the recovered network shares). An online
	// repair driver needs these to schedule the rewiring pod by pod.
	Added [][2]int
	// BrokenIDs lists the degraded-network link IDs the swaps consumed,
	// in the same order the swaps happened.
	BrokenIDs []int
	// Leftover is the number of freed ports recovery could not consume.
	Leftover int
}

// Recover rewires the ports that a failure freed on surviving switches,
// using the same randomized edge-swap machinery that builds Jellyfish
// graphs (graph.AugmentRandom): freed rewirable ports are joined pairwise,
// and when the process gets stuck an existing rewirable, unpinned
// switch-switch link is broken to splice a stranded port in. New links are
// tagged TagRandom. The input Outcome is not modified; the returned
// network is a rebuilt copy with identical node IDs.
//
// This models §5 of the flat-tree paper: after equipment failure the
// converter fabric re-aims its surviving ports to patch the topology,
// something a fixed-cable Clos cannot do (pass RewirableNone to model
// that).
func Recover(out *Outcome, opt RecoverOptions) (*topo.Network, RecoverReport, error) {
	nw := out.Net
	rewirable := opt.Rewirable
	if rewirable == nil {
		rewirable = DefaultRewirable
	}
	var rep RecoverReport
	free := make([]int, nw.N())
	for v, tags := range out.Freed {
		if !nw.Nodes[v].Kind.IsSwitch() {
			continue
		}
		for _, t := range tags {
			if rewirable(t) {
				free[v]++
				rep.FreedPorts++
			}
		}
	}
	if rep.FreedPorts < 2 {
		rep.Leftover = rep.FreedPorts
		return nw, rep, nil
	}

	canBreak := func(id int) bool {
		l := nw.Links[id]
		return nw.IsSwitchLink(l) && !out.Pinned[id] && rewirable(l.Tag)
	}
	// Link IDs and graph edge indices coincide (Graph adds edges in link
	// order), so AugmentRandom's edge bookkeeping maps straight back to
	// links. Graph builds a fresh graph, so AugmentRandom may rewire it.
	g := nw.Graph()
	res, err := graph.AugmentRandom(g, free, canBreak, graph.NewRNG(opt.Seed))
	if err != nil {
		return nil, rep, err
	}
	rep.AddedLinks = len(res.Added)
	rep.BrokenLinks = len(res.Broken)
	rep.Leftover = res.Leftover
	rep.Added = make([][2]int, len(res.Added))
	for i, e := range res.Added {
		rep.Added[i] = [2]int{int(e.A), int(e.B)}
	}
	rep.BrokenIDs = append([]int(nil), res.Broken...)

	broken := make(map[int]bool, len(res.Broken))
	for _, id := range res.Broken {
		broken[id] = true
	}
	b := topo.NewBuilder(nw.Name + "+recovered")
	b.Reserve(len(nw.Nodes), len(nw.Links)+len(res.Added))
	for _, n := range nw.Nodes {
		b.AddNode(n.Kind, n.Pod, n.Index, n.Ports)
	}
	for _, l := range nw.Links {
		if broken[l.ID] {
			continue
		}
		b.AddLink(l.A, l.B, l.Tag)
	}
	for _, e := range res.Added {
		b.AddLink(int(e.A), int(e.B), topo.TagRandom)
	}
	return b.Build(), rep, nil
}
