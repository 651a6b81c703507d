package faults

import (
	"fmt"
	"math/bits"

	"flattree/internal/graph"
	"flattree/internal/topo"
)

// Report quantifies a degraded network.
type Report struct {
	// Servers surviving and total switch-switch links remaining.
	Servers, SwitchLinks int
	// Connected reports whether all surviving servers can still reach
	// each other.
	Connected bool
	// LargestComponentFrac is the fraction of surviving servers in the
	// largest connected component.
	LargestComponentFrac float64
	// APL is the average path length over server pairs in the largest
	// component (NaN if fewer than 2 servers survive connected).
	APL float64
}

// Analyze computes a degradation report.
func Analyze(nw *topo.Network) (Report, error) {
	r := Report{Servers: len(nw.Servers())}
	for _, l := range nw.Links {
		if nw.IsSwitchLink(l) {
			r.SwitchLinks++
		}
	}
	if r.Servers == 0 {
		return r, nil
	}
	comp, bestComp, best := largest(nw)
	r.LargestComponentFrac = float64(best) / float64(r.Servers)
	r.Connected = best == r.Servers

	// APL inside the largest component, in integer sums: its hosting
	// switches go through the path-length kernel graph.HopBatch at a time,
	// and each unordered server pair is counted from its lower-indexed host.
	if best < 2 {
		return r, nil
	}
	g := nw.Graph()
	var hosts []int                // hosting switches of the largest component
	var counts []int64             // counts[i]: servers on hosts[i]
	hostOf := make([]int32, g.N()) // switch -> index into hosts, -1 if it hosts none there
	for i := range hostOf {
		hostOf[i] = -1
	}
	for _, sv := range nw.Servers() {
		if comp[sv] != bestComp {
			continue
		}
		sw := nw.HostSwitch(sv)
		if hostOf[sw] < 0 {
			hostOf[sw] = int32(len(hosts))
			hosts = append(hosts, sw)
			counts = append(counts, 0)
		}
		counts[hostOf[sw]]++
	}
	hg := g.Induced(func(v int) bool { return nw.Nodes[v].Kind.IsSwitch() })
	var sum, pairs int64
	for _, c := range counts {
		same := c * (c - 1) / 2
		sum += same * 2
		pairs += same
	}
	for base := 0; base < len(hosts); base += graph.HopBatch {
		end := min(base+graph.HopBatch, len(hosts))
		err := hg.Sweep(hosts[base:end], func(level, node int, fresh uint64) {
			t := int(hostOf[node])
			if t <= base {
				return
			}
			fresh &= 1<<uint(t-base) - 1 // the sources indexed below t; all of them once t-base >= 64
			for ; fresh != 0; fresh &= fresh - 1 {
				cnt := counts[base+bits.TrailingZeros64(fresh)] * counts[t]
				sum += cnt * int64(level+2)
				pairs += cnt
			}
		})
		if err != nil {
			return r, err
		}
	}
	if pairs != int64(best)*int64(best-1)/2 {
		return r, fmt.Errorf("faults: component analysis inconsistent")
	}
	r.APL = float64(sum) / float64(pairs)
	return r, nil
}

// LargestComponent returns the servers of the largest connected component,
// ascending; of equally large components, the one holding the lowest server
// ID. Networks mid-repair are legitimately missing servers (dark windows
// detach them, dead pods remove them), and the surviving majority is what
// recovery tables and the soak's SLO score.
func LargestComponent(nw *topo.Network) []int {
	comp, best, _ := largest(nw)
	var out []int
	for _, sv := range nw.Servers() {
		if comp[sv] == best {
			out = append(out, sv)
		}
	}
	return out
}

// largest labels nw's connected components and picks the one holding the
// most servers; of equally large components, the one holding the lowest
// server ID, so the choice depends on the network alone. A detached server
// is a component of its own. It returns the labels, the chosen component
// (-1 if there are no servers) and its server count.
func largest(nw *topo.Network) (comp []int32, best int32, size int) {
	comp, n := nw.Graph().Components()
	count := make([]int, n)
	for _, sv := range nw.Servers() {
		count[comp[sv]]++
	}
	best = -1
	for _, sv := range nw.Servers() {
		if c := count[comp[sv]]; c > size {
			best, size = comp[sv], c
		}
	}
	return comp, best, size
}
