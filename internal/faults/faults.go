// Package faults injects equipment failures into constructed networks and
// measures the degradation, supporting the robustness analysis that §5 of
// the flat-tree paper motivates ("self-recovery of the topology from
// failures"): how gracefully each topology's path length and throughput
// degrade as links or switches fail, and how much a flat-tree recovers by
// rewiring its surviving converter-attached ports after a failure.
//
// The failure model is layered: uniform random link failures, uniform
// random and explicit switch failures, pod-scoped correlated bursts, and
// converter failures. A dead converter does not take its links down — it
// pins them to the current wiring, so the block keeps carrying traffic but
// can no longer convert, which means recovery must not rewire those ports.
package faults

import (
	"fmt"
	"sort"

	"flattree/internal/graph"
	"flattree/internal/topo"
)

// Scenario selects equipment to fail. All random draws are driven by Seed;
// the same scenario applied to the same network always fails the same
// equipment.
type Scenario struct {
	// LinkFraction fails this fraction of switch-switch links, chosen
	// uniformly at random (server access links never fail here; a failed
	// access link is equivalent to removing the server).
	LinkFraction float64
	// SwitchFraction fails this fraction of switches, chosen uniformly at
	// random across all switch kinds. Validation mirrors LinkFraction:
	// the value must be in [0,1).
	SwitchFraction float64
	// Switches fails these specific switch IDs outright (all their links
	// go down; hosted servers become unreachable and are removed).
	// Duplicate IDs are rejected: a duplicate would silently double-book
	// the same switch against the caller's intended failure count.
	Switches []int
	// BurstPods applies a correlated burst to this many randomly chosen
	// pods: in each, BurstLinkFraction of the switch-switch links with an
	// endpoint in the pod fail together (a shared power feed or top-level
	// patch panel going down).
	BurstPods int
	// BurstLinkFraction is the fraction of each burst pod's links that
	// fail. Must be in [0,1); ignored when BurstPods is zero.
	BurstLinkFraction float64
	// ConverterFraction kills this fraction of converter blocks. A block
	// is the set of converter-created effective links (TagConverter /
	// TagSide) anchored in one pod; a dead block's surviving links are
	// pinned — still forwarding, but frozen in the current wiring and
	// unavailable to Recover.
	ConverterFraction float64
	// Seed drives every random choice above.
	Seed uint64
}

func (sc Scenario) validate() error {
	// A fixed-order slice, not a map literal: the first offending field
	// decides the error message, so iteration order must be deterministic
	// (this was flatlint's first real maporder catch).
	for _, fr := range []struct {
		name string
		f    float64
	}{
		{"link", sc.LinkFraction}, {"switch", sc.SwitchFraction},
		{"burst link", sc.BurstLinkFraction}, {"converter", sc.ConverterFraction},
	} {
		if fr.f < 0 || fr.f >= 1 {
			return fmt.Errorf("faults: %s fraction %g out of [0,1)", fr.name, fr.f)
		}
	}
	if sc.BurstPods < 0 {
		return fmt.Errorf("faults: negative burst pod count %d", sc.BurstPods)
	}
	return nil
}

// Outcome is the result of applying a Scenario: the degraded network plus
// the bookkeeping Recover needs to rewire around the damage.
type Outcome struct {
	// Net is the degraded network. Node IDs are remapped (failed switches
	// and their servers disappear); Pod and Index are preserved.
	Net *topo.Network
	// Pinned, indexed by Net link ID, marks links frozen by a dead
	// converter: they survive and carry traffic but must not be broken
	// by recovery swaps.
	Pinned []bool
	// Freed, indexed by Net node ID, lists the tags of the links each
	// surviving switch lost. Each entry is one physical port freed by the
	// failure; Recover turns the rewirable ones into new random links.
	Freed [][]topo.LinkTag
	// FailedSwitches, FailedLinks, PinnedLinks count the damage:
	// switches removed, switch-switch links removed (not counting links
	// that died with a failed switch), and surviving links pinned by dead
	// converters.
	FailedSwitches, FailedLinks, PinnedLinks int
}

// Fail applies the scenario's failures and returns the degraded network
// with recovery bookkeeping. The draws are ordered: explicit switches,
// then the random switch fraction, then pod bursts, then uniform link
// failures, then converter blocks — so adding a later stage to a scenario
// never changes what an earlier stage fails.
func Fail(nw *topo.Network, sc Scenario) (*Outcome, error) {
	return Compose(&Outcome{Net: nw}, sc)
}

// Compose applies a new failure episode on top of an already-degraded
// Outcome, as a long-horizon soak needs when faults arrive as a stream:
// the previous episode's bookkeeping is carried forward instead of being
// recomputed from an undamaged network. Specifically:
//
//   - links pinned by earlier converter deaths stay pinned in the new
//     outcome (remapped to the rebuilt network's link IDs);
//   - freed ports recorded on surviving switches stay freed (a repair may
//     not have consumed them yet), and the new episode's freed ports are
//     appended after them;
//   - a dead link that was pinned frees no ports — the converter that
//     would re-aim them is itself dead, so the ports are dead metal;
//   - damage counters accumulate across episodes.
//
// prev is not modified. A fresh network is the degenerate case: Fail is
// exactly Compose onto an Outcome with no prior damage.
func Compose(prev *Outcome, sc Scenario) (*Outcome, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	nw := prev.Net
	if prev.Pinned != nil && len(prev.Pinned) != len(nw.Links) {
		return nil, fmt.Errorf("faults: outcome has %d pinned flags for %d links", len(prev.Pinned), len(nw.Links))
	}
	if prev.Freed != nil && len(prev.Freed) != nw.N() {
		return nil, fmt.Errorf("faults: outcome has %d freed entries for %d nodes", len(prev.Freed), nw.N())
	}
	prevPinned := func(id int) bool { return prev.Pinned != nil && prev.Pinned[id] }
	failedSwitch := make(map[int]bool, len(sc.Switches))
	for _, s := range sc.Switches {
		if s < 0 || s >= nw.N() || !nw.Nodes[s].Kind.IsSwitch() {
			return nil, fmt.Errorf("faults: node %d is not a switch", s)
		}
		if failedSwitch[s] {
			return nil, fmt.Errorf("faults: switch %d listed twice in Scenario.Switches", s)
		}
		failedSwitch[s] = true
	}
	rng := graph.NewRNG(sc.Seed)

	// Random switch fraction, drawn over all switches in ID order,
	// skipping the explicitly failed ones.
	if sc.SwitchFraction > 0 {
		switches := nw.Switches()
		numFail := int(sc.SwitchFraction * float64(len(switches)))
		for _, pi := range rng.Perm(len(switches)) {
			if numFail == 0 {
				break
			}
			if s := switches[pi]; !failedSwitch[s] {
				failedSwitch[s] = true
				numFail--
			}
		}
	}

	// Switch-switch link pool, and the pod each link is anchored in (the
	// first endpoint with a pod; -1 for pure core links).
	var ssLinks []int
	linkPod := make(map[int]int)
	for _, l := range nw.Links {
		if !nw.Nodes[l.A].Kind.IsSwitch() || !nw.Nodes[l.B].Kind.IsSwitch() {
			continue
		}
		ssLinks = append(ssLinks, l.ID)
		pod := nw.Nodes[l.A].Pod
		if pod < 0 {
			pod = nw.Nodes[l.B].Pod
		}
		linkPod[l.ID] = pod
	}
	failedLink := make(map[int]bool)

	// Pod-scoped bursts.
	if sc.BurstPods > 0 {
		var pods []int
		seen := make(map[int]bool)
		for _, s := range nw.Switches() {
			if p := nw.Nodes[s].Pod; p >= 0 && !seen[p] {
				seen[p] = true
				pods = append(pods, p)
			}
		}
		sort.Ints(pods)
		if sc.BurstPods > len(pods) {
			return nil, fmt.Errorf("faults: burst wants %d pods, network has %d", sc.BurstPods, len(pods))
		}
		perm := rng.Perm(len(pods))
		for bi := 0; bi < sc.BurstPods; bi++ {
			pod := pods[perm[bi]]
			var pool []int
			for _, id := range ssLinks {
				if linkPod[id] == pod && !failedLink[id] {
					pool = append(pool, id)
				}
			}
			numFail := int(sc.BurstLinkFraction * float64(len(pool)))
			pperm := rng.Perm(len(pool))
			for i := 0; i < numFail; i++ {
				failedLink[pool[pperm[i]]] = true
			}
		}
	}

	// Uniform link failures on top, skipping links already down.
	if sc.LinkFraction > 0 {
		numFail := int(sc.LinkFraction * float64(len(ssLinks)))
		for _, pi := range rng.Perm(len(ssLinks)) {
			if numFail == 0 {
				break
			}
			if id := ssLinks[pi]; !failedLink[id] {
				failedLink[id] = true
				numFail--
			}
		}
	}

	// Converter blocks: converter-created links grouped by anchor pod.
	pinnedOld := make(map[int]bool)
	if sc.ConverterFraction > 0 {
		var blocks []int
		members := make(map[int][]int)
		for _, l := range nw.Links {
			if l.Tag != topo.TagConverter && l.Tag != topo.TagSide {
				continue
			}
			pod := linkPod[l.ID]
			if members[pod] == nil {
				blocks = append(blocks, pod)
			}
			members[pod] = append(members[pod], l.ID)
		}
		sort.Ints(blocks)
		numDead := int(sc.ConverterFraction * float64(len(blocks)))
		perm := rng.Perm(len(blocks))
		for i := 0; i < numDead; i++ {
			for _, id := range members[blocks[perm[i]]] {
				pinnedOld[id] = true
			}
		}
	}

	// Rebuild. Node IDs shift because failed switches and their servers
	// disappear; Index and Pod are preserved.
	b := topo.NewBuilder(nw.Name + "+faults")
	b.Reserve(len(nw.Nodes), len(nw.Links))
	remap := make([]int, nw.N())
	for i := range remap {
		remap[i] = -1
	}
	for _, n := range nw.Nodes {
		if failedSwitch[n.ID] {
			continue
		}
		if n.Kind == topo.Server {
			host := nw.HostSwitch(n.ID)
			if host >= 0 && failedSwitch[host] {
				continue
			}
		}
		remap[n.ID] = b.AddNode(n.Kind, n.Pod, n.Index, n.Ports)
	}
	out := &Outcome{
		Freed:          make([][]topo.LinkTag, b.NumNodes()),
		FailedSwitches: prev.FailedSwitches + len(failedSwitch),
		FailedLinks:    prev.FailedLinks,
	}
	// Unconsumed freed ports from earlier episodes ride along on their
	// surviving switches, ahead of this episode's ports.
	if prev.Freed != nil {
		for v, tags := range prev.Freed {
			if remap[v] >= 0 && len(tags) > 0 {
				out.Freed[remap[v]] = append([]topo.LinkTag(nil), tags...)
			}
		}
	}
	var pinnedNew []bool
	for _, l := range nw.Links {
		a, bb := remap[l.A], remap[l.B]
		dead := failedLink[l.ID] || a < 0 || bb < 0
		if !dead {
			b.AddLink(a, bb, l.Tag)
			pin := pinnedOld[l.ID] || prevPinned(l.ID)
			pinnedNew = append(pinnedNew, pin)
			if pin {
				out.PinnedLinks++
			}
			continue
		}
		if !nw.Nodes[l.A].Kind.IsSwitch() || !nw.Nodes[l.B].Kind.IsSwitch() {
			continue
		}
		if failedLink[l.ID] && a >= 0 && bb >= 0 {
			out.FailedLinks++
		}
		if prevPinned(l.ID) || pinnedOld[l.ID] {
			// The converter that would re-aim these ports is dead; a
			// pinned link's death strands its ports instead of freeing
			// them.
			continue
		}
		// Each surviving endpoint gains a freed port.
		if a >= 0 {
			out.Freed[a] = append(out.Freed[a], l.Tag)
		}
		if bb >= 0 {
			out.Freed[bb] = append(out.Freed[bb], l.Tag)
		}
	}
	out.Net = b.Build()
	out.Pinned = pinnedNew
	return out, nil
}

// Degrade returns a copy of the network with the scenario's failures
// applied. Servers hosted by failed switches are removed along with the
// switch. The result may be disconnected; Report quantifies that rather
// than failing. Degrade is Fail without the recovery bookkeeping.
func Degrade(nw *topo.Network, sc Scenario) (*topo.Network, error) {
	out, err := Fail(nw, sc)
	if err != nil {
		return nil, err
	}
	return out.Net, nil
}
