// Package metrics computes the evaluation metrics of the flat-tree paper:
// average path length in hops over server pairs — network-wide (Figure 5)
// and restricted to pairs within the same pod (Figure 6) — plus supporting
// distance statistics. Converter switches never appear in effective
// networks, so hop counts automatically satisfy the paper's "converters are
// physical-layer and contribute no hops" assumption.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"flattree/internal/graph"
	"flattree/internal/topo"
)

// PathLengthStats aggregates server-pair distance statistics for one
// network. Distances are in hops (links traversed), server to server: two
// servers on the same switch are 2 hops apart.
type PathLengthStats struct {
	// Global is the mean over all distinct server pairs.
	Global float64
	// IntraPod is the mean over distinct server pairs with the same pod
	// label (servers keep their home-pod label in every topology, so this
	// compares "the same tenants" across topologies, as §3.2 does).
	IntraPod float64
	// Max is the server-pair diameter.
	Max int
	// Histogram[d] counts server pairs at distance d.
	Histogram []int64
}

// ServerPathLengths computes PathLengthStats over the pairs of the given
// servers; nw.Servers() measures the whole network. It returns an error if
// fewer than two servers are given, an ID is out of range, not a server or
// listed twice, a server is detached, or two are disconnected. Hosting
// switches go through graph.HopGraph.Sweep on the switch-only graph
// graph.HopBatch at a time, and each unordered server pair is counted from
// its lower-indexed host.
func ServerPathLengths(nw *topo.Network, servers []int) (PathLengthStats, error) {
	if len(servers) < 2 {
		return PathLengthStats{}, fmt.Errorf("metrics: need at least 2 servers, have %d", len(servers))
	}
	var hs hostTable
	if err := hs.fill(nw, servers); err != nil {
		return PathLengthStats{}, err
	}
	p := newPairHist(&hs)
	for h := range hs.sw {
		// Two servers on one switch are 2 hops apart.
		var samePod int64
		for _, pc := range hs.podsOf(h) {
			samePod += int64(pc.count) * int64(pc.count-1) / 2
		}
		total := hs.servers(h)
		p.add(2, total*(total-1)/2, samePod)
	}
	isSwitch := func(v int) bool { return nw.Nodes[v].Kind.IsSwitch() }
	hg := graph.NewHopGraph(nw.N(), isSwitch, len(nw.Links), nw.LinkEnds)
	for base := 0; base < len(hs.sw); base += graph.HopBatch {
		if err := p.sweepBatch(hg, &hs, base); err != nil {
			return PathLengthStats{}, err
		}
	}
	var sum, pairs, podSum, podPairs int64
	for d, cnt := range p.all {
		sum += cnt * int64(d)
		pairs += cnt
		podSum += p.pod[d] * int64(d)
		podPairs += p.pod[d]
	}
	if n := int64(len(servers)); pairs != n*(n-1)/2 {
		return PathLengthStats{}, hs.disconnected(hg)
	}
	st := PathLengthStats{
		Global:    float64(sum) / float64(pairs),
		IntraPod:  math.NaN(),
		Max:       len(p.all) - 1,
		Histogram: p.all,
	}
	if podPairs > 0 {
		st.IntraPod = float64(podSum) / float64(podPairs)
	}
	return st, nil
}

// podCount is the number of servers of one home pod on a host; pod is a
// dense index over the labels in use.
type podCount struct {
	pod, count int32
}

// hostTable groups a server set by hosting switch. Host h, numbered in
// order of first appearance, is switch sw[h] with off[h+1]-off[h] of the
// servers, counted per home pod in pods[off[h]:end[h]].
type hostTable struct {
	sw      []int
	off     []int32
	end     []int32
	pods    []podCount
	numPods int
	// of maps a switch to its host, -1 if it hosts none of the servers, and
	// marks each server already read from the list with listed.
	of []int32
}

const listed = -2

func (hs *hostTable) servers(h int) int64     { return int64(hs.off[h+1] - hs.off[h]) }
func (hs *hostTable) podsOf(h int) []podCount { return hs.pods[hs.off[h]:hs.end[h]] }

func (hs *hostTable) fill(nw *topo.Network, servers []int) error {
	hs.of = make([]int32, nw.N())
	for i := range hs.of {
		hs.of[i] = -1
	}
	// The pod labels in use, ascending, with room for a fabric's k <= 64 pods.
	labels := make([]int, 0, 64)
	hosts := 0
	for _, sv := range servers {
		switch {
		case sv < 0 || sv >= nw.N():
			return fmt.Errorf("metrics: server %d out of range [0, %d)", sv, nw.N())
		case nw.Nodes[sv].Kind != topo.Server:
			return fmt.Errorf("metrics: node %d is not a server", sv)
		case hs.of[sv] == listed:
			return fmt.Errorf("metrics: server %d listed twice", sv)
		}
		hs.of[sv] = listed
		sw := nw.HostSwitch(sv)
		if sw < 0 {
			return fmt.Errorf("metrics: server %d detached", sv)
		}
		if hs.of[sw] < 0 {
			hs.of[sw] = int32(hosts)
			hosts++
		}
		if i, ok := slices.BinarySearch(labels, nw.Nodes[sv].Pod); !ok {
			labels = slices.Insert(labels, i, nw.Nodes[sv].Pod)
		}
	}
	hs.numPods = len(labels)
	hs.sw = make([]int, hosts)
	hs.off = make([]int32, hosts+1)
	for _, sv := range servers {
		sw := nw.HostSwitch(sv)
		hs.sw[hs.of[sw]] = sw
		hs.off[hs.of[sw]+1]++
	}
	// Host h has a slot per server from off[h] on, and end[h] is its fill
	// cursor: servers sharing a pod share a slot.
	hs.end = make([]int32, hosts)
	for h := range hosts {
		hs.off[h+1] += hs.off[h]
		hs.end[h] = hs.off[h]
	}
	hs.pods = make([]podCount, len(servers))
	for _, sv := range servers {
		h := hs.of[nw.HostSwitch(sv)]
		pod, _ := slices.BinarySearch(labels, nw.Nodes[sv].Pod)
		i := hs.off[h]
		for i < hs.end[h] && hs.pods[i].pod != int32(pod) {
			i++
		}
		if i == hs.end[h] {
			hs.pods[i] = podCount{pod: int32(pod)}
			hs.end[h]++
		}
		hs.pods[i].count++
	}
	return nil
}

// disconnected names two hosts without a path between them, for a server
// set whose sweeps counted fewer pairs than it has: host 0 and the first
// host a sweep from it does not reach.
func (hs *hostTable) disconnected(hg *graph.HopGraph) error {
	reached := make([]bool, len(hs.sw))
	err := hg.Sweep(hs.sw[:1], func(_, node int, _ uint64) {
		if t := hs.of[node]; t >= 0 {
			reached[t] = true
		}
	})
	if err != nil {
		return err
	}
	t := slices.Index(reached, false)
	return fmt.Errorf("metrics: switches %d and %d disconnected", hs.sw[0], hs.sw[t])
}

// pairHist counts server pairs by distance: all[d] is the number of pairs d
// hops apart, pod[d] those of them sharing a pod label. Sums, means and the
// maximum all derive from it, in integers, so the order pairs are counted
// in does not matter.
type pairHist struct {
	all, pod []int64
	// The current batch's sources by server count: groups[:numGroups] holds
	// one mask per distinct count, and podGroups[podOff[q]:podEnd[q]] one per
	// distinct count of pod q's servers. A report then costs one popcount
	// per group.
	groups         [graph.HopBatch]countGroup
	numGroups      int
	podGroups      []countGroup
	podOff, podEnd []int32
}

// countGroup is the set of a batch's sources, bit j for source j, that each
// hold count servers.
type countGroup struct {
	count int64
	mask  uint64
}

// newPairHist returns an empty pairHist whose group buffers fit every batch
// of hs, so the batches allocate nothing.
func newPairHist(hs *hostTable) pairHist {
	entries := 0 // the most (host, pod) counts in one batch
	for base := 0; base < len(hs.sw); base += graph.HopBatch {
		n := 0
		for h := base; h < min(base+graph.HopBatch, len(hs.sw)); h++ {
			n += len(hs.podsOf(h))
		}
		entries = max(entries, n)
	}
	pods := make([]int32, 2*hs.numPods+1)
	return pairHist{
		// Room for the diameters of the fabrics here; add grows it past them.
		all:       make([]int64, 0, 8),
		pod:       make([]int64, 0, 8),
		podGroups: make([]countGroup, entries),
		podOff:    pods[:hs.numPods+1],
		podEnd:    pods[hs.numPods+1:],
	}
}

func (p *pairHist) add(hops int, cnt, podCnt int64) {
	if cnt == 0 {
		return
	}
	for hops >= len(p.all) {
		p.all = append(p.all, 0)
		p.pod = append(p.pod, 0)
	}
	p.all[hops] += cnt
	p.pod[hops] += podCnt
}

// join adds source j to the group of gs holding count servers, or to a new
// group appended to gs, and returns gs.
func join(gs []countGroup, count int64, j int) []countGroup {
	for i := range gs {
		if gs[i].count == count {
			gs[i].mask |= 1 << uint(j)
			return gs
		}
	}
	return append(gs, countGroup{count, 1 << uint(j)})
}

// group fills the group buffers for the n sources from host base on. The
// per-pod groups are laid out by counting sort: pod q gets room for every
// source with a server of q, and each source joins q's group of its count.
func (p *pairHist) group(hs *hostTable, base, n int) {
	p.numGroups = 0
	clear(p.podOff)
	for j := range n {
		p.numGroups = len(join(p.groups[:p.numGroups], hs.servers(base+j), j))
		for _, pc := range hs.podsOf(base + j) {
			p.podOff[pc.pod+1]++
		}
	}
	for q := range hs.numPods {
		p.podOff[q+1] += p.podOff[q]
		p.podEnd[q] = p.podOff[q]
	}
	for j := range n {
		for _, pc := range hs.podsOf(base + j) {
			gs := join(p.podGroups[p.podOff[pc.pod]:p.podEnd[pc.pod]], int64(pc.count), j)
			p.podEnd[pc.pod] = p.podOff[pc.pod] + int32(len(gs))
		}
	}
}

// sweepBatch counts the server pairs whose lower-indexed host is one of the
// up to graph.HopBatch hosts starting at base, so that over all batches
// each unordered pair is counted once.
func (p *pairHist) sweepBatch(hg *graph.HopGraph, hs *hostTable, base int) error {
	sources := hs.sw[base:min(base+graph.HopBatch, len(hs.sw))]
	p.group(hs, base, len(sources))
	return hg.Sweep(sources, func(level, node int, fresh uint64) {
		t := int(hs.of[node])
		if t <= base {
			return
		}
		fresh &= 1<<uint(t-base) - 1 // the sources indexed below t; all of them once t-base >= 64
		var cnt, podCnt int64
		for _, g := range p.groups[:p.numGroups] {
			cnt += g.count * int64(bits.OnesCount64(fresh&g.mask))
		}
		for _, pt := range hs.podsOf(t) {
			var c int64
			for _, g := range p.podGroups[p.podOff[pt.pod]:p.podEnd[pt.pod]] {
				c += g.count * int64(bits.OnesCount64(fresh&g.mask))
			}
			podCnt += c * int64(pt.count)
		}
		p.add(level+2, cnt*hs.servers(t), podCnt)
	})
}

// AveragePathLength returns the network-wide server-pair average path
// length in hops.
func AveragePathLength(nw *topo.Network) (float64, error) {
	st, err := ServerPathLengths(nw, nw.Servers())
	if err != nil {
		return 0, err
	}
	return st.Global, nil
}

// IntraPodAveragePathLength returns the mean distance over server pairs
// sharing a pod label.
func IntraPodAveragePathLength(nw *topo.Network) (float64, error) {
	st, err := ServerPathLengths(nw, nw.Servers())
	if err != nil {
		return 0, err
	}
	if math.IsNaN(st.IntraPod) {
		return 0, fmt.Errorf("metrics: network has no intra-pod server pairs")
	}
	return st.IntraPod, nil
}
