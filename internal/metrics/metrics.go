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

	"flattree/internal/graph"
	"flattree/internal/parallel"
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

// ServerPathLengths computes PathLengthStats. It returns an error if a
// server is detached or any server pair is disconnected.
func ServerPathLengths(nw *topo.Network) (PathLengthStats, error) {
	return ServerPathLengthsParallel(nw, 1)
}

// podCount is the number of servers of one home pod on a switch; pod is a
// dense index over the labels in use.
type podCount struct {
	pod   int
	count int64
}

// host is a switch with servers attached.
type host struct {
	sw    int
	total int64
	pods  []podCount
}

// pairHist counts server pairs by distance: all[d] is the number of pairs d
// hops apart, pod[d] those of them sharing a pod label. Sums, means and the
// maximum all derive from it, and being integers, partial histograms add up
// to the same totals in any order.
type pairHist struct {
	all, pod []int64
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

// ServerPathLengthsParallel is ServerPathLengths with the sweep fanned out
// across workers goroutines (0 means all cores, 1 means fully sequential).
// Hosting switches go through graph.HopGraph.Sweep on the switch-only graph
// graph.HopBatch at a time; the statistics are identical for every worker
// count.
func ServerPathLengthsParallel(nw *topo.Network, workers int) (PathLengthStats, error) {
	servers := nw.Servers()
	if len(servers) < 2 {
		return PathLengthStats{}, fmt.Errorf("metrics: need at least 2 servers, have %d", len(servers))
	}
	var hosts []host
	podIndex := map[int]int{}       // pod label -> dense index
	hostOf := make([]int32, nw.N()) // switch -> index into hosts, -1 if it hosts nothing
	for i := range hostOf {
		hostOf[i] = -1
	}
	for _, sv := range servers {
		sw := nw.HostSwitch(sv)
		if sw < 0 {
			return PathLengthStats{}, fmt.Errorf("metrics: server %d detached", sv)
		}
		if hostOf[sw] < 0 {
			hostOf[sw] = int32(len(hosts))
			hosts = append(hosts, host{sw: sw})
		}
		h := &hosts[hostOf[sw]]
		h.total++
		pod, ok := podIndex[nw.Nodes[sv].Pod]
		if !ok {
			pod = len(podIndex)
			podIndex[nw.Nodes[sv].Pod] = pod
		}
		i := 0
		for i < len(h.pods) && h.pods[i].pod != pod {
			i++
		}
		if i == len(h.pods) {
			h.pods = append(h.pods, podCount{pod: pod})
		}
		h.pods[i].count++
	}

	hg := nw.Graph().Induced(func(v int) bool { return nw.Nodes[v].Kind.IsSwitch() })
	batches := (len(hosts) + graph.HopBatch - 1) / graph.HopBatch
	parts, err := parallel.Map(batches, workers, func(b int) (pairHist, error) {
		return sweepBatch(hg, hosts, hostOf, len(podIndex), b*graph.HopBatch)
	})
	if err != nil {
		return PathLengthStats{}, err
	}
	var sum, pairs, podSum, podPairs int64
	var hist []int64
	for _, p := range parts {
		for d, cnt := range p.all {
			for d >= len(hist) {
				hist = append(hist, 0)
			}
			hist[d] += cnt
			sum += cnt * int64(d)
			pairs += cnt
			podSum += p.pod[d] * int64(d)
			podPairs += p.pod[d]
		}
	}
	st := PathLengthStats{
		Global:    float64(sum) / float64(pairs),
		IntraPod:  math.NaN(),
		Max:       len(hist) - 1,
		Histogram: hist,
	}
	if podPairs > 0 {
		st.IntraPod = float64(podSum) / float64(podPairs)
	}
	return st, nil
}

// sweepBatch counts the server pairs whose lower-indexed host is one of the
// up to graph.HopBatch hosts starting at hosts[base], so that over all
// batches each unordered pair is counted once.
func sweepBatch(hg *graph.HopGraph, hosts []host, hostOf []int32, numPods, base int) (pairHist, error) {
	batch := hosts[base:min(base+graph.HopBatch, len(hosts))]
	var p pairHist
	sources := make([]int, len(batch))
	podBits := make([]uint64, numPods) // podBits[pod]: batch sources hosting a server of that pod
	for j, h := range batch {
		sources[j] = h.sw
		// Two servers on one switch are 2 hops apart.
		var samePod int64
		for _, pc := range h.pods {
			samePod += pc.count * (pc.count - 1) / 2
			podBits[pc.pod] |= 1 << uint(j)
		}
		p.add(2, h.total*(h.total-1)/2, samePod)
	}
	reached := make([]uint64, len(hosts)) // reached[t]: batch sources below t that arrived at hosts[t]
	err := hg.Sweep(sources, func(level, node int, fresh uint64) {
		t := int(hostOf[node])
		if t <= base {
			return
		}
		fresh &= 1<<uint(t-base) - 1 // the sources indexed below t; all of them once t-base >= 64
		reached[t] |= fresh
		ht := &hosts[t]
		var cnt, podCnt int64
		for m := fresh; m != 0; m &= m - 1 {
			cnt += batch[bits.TrailingZeros64(m)].total
		}
		// Most pairs span two pods; the per-pod masks skip them a word at a time.
		for _, pt := range ht.pods {
			for m := fresh & podBits[pt.pod]; m != 0; m &= m - 1 {
				for _, ps := range batch[bits.TrailingZeros64(m)].pods {
					if ps.pod == pt.pod {
						podCnt += ps.count * pt.count
					}
				}
			}
		}
		p.add(level+2, cnt*ht.total, podCnt)
	})
	if err != nil {
		return p, err
	}
	whole := uint64(1)<<uint(len(batch)) - 1
	for t := base + 1; t < len(hosts); t++ {
		if miss := whole & (1<<uint(t-base) - 1) &^ reached[t]; miss != 0 {
			return p, fmt.Errorf("metrics: switches %d and %d disconnected",
				batch[bits.TrailingZeros64(miss)].sw, hosts[t].sw)
		}
	}
	return p, nil
}

// AveragePathLength returns the network-wide server-pair average path
// length in hops.
func AveragePathLength(nw *topo.Network) (float64, error) {
	return AveragePathLengthParallel(nw, 1)
}

// AveragePathLengthParallel is AveragePathLength with the BFS sweep spread
// over workers goroutines (0 means all cores); the result is identical for
// every worker count.
func AveragePathLengthParallel(nw *topo.Network, workers int) (float64, error) {
	st, err := ServerPathLengthsParallel(nw, workers)
	if err != nil {
		return 0, err
	}
	return st.Global, nil
}

// IntraPodAveragePathLength returns the mean distance over server pairs
// sharing a pod label.
func IntraPodAveragePathLength(nw *topo.Network) (float64, error) {
	return IntraPodAveragePathLengthParallel(nw, 1)
}

// IntraPodAveragePathLengthParallel is IntraPodAveragePathLength with the
// BFS sweep spread over workers goroutines (0 means all cores); the result
// is identical for every worker count.
func IntraPodAveragePathLengthParallel(nw *topo.Network, workers int) (float64, error) {
	st, err := ServerPathLengthsParallel(nw, workers)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(st.IntraPod) {
		return 0, fmt.Errorf("metrics: network has no intra-pod server pairs")
	}
	return st.IntraPod, nil
}
