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
		if nw.Nodes[l.A].Kind.IsSwitch() && nw.Nodes[l.B].Kind.IsSwitch() {
			r.SwitchLinks++
		}
	}
	if r.Servers == 0 {
		return r, nil
	}

	// Component analysis over the full node graph.
	g := nw.Graph()
	comp := make([]int32, g.N())
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]int32, g.N())
	numComp := int32(0)
	for v := 0; v < g.N(); v++ {
		if comp[v] >= 0 || g.Degree(v) == 0 {
			continue
		}
		comp[v] = numComp
		queue[0] = int32(v)
		head, tail := 0, 1
		for head < tail {
			u := queue[head]
			head++
			for _, h := range g.Neighbors(int(u)) {
				if comp[h.Peer] < 0 {
					comp[h.Peer] = numComp
					queue[tail] = h.Peer
					tail++
				}
			}
		}
		numComp++
	}
	// Servers per component; a detached server is a component of its own.
	perComp := make([]int, numComp)
	best, bestComp := 0, int32(-1)
	for _, sv := range nw.Servers() {
		if c := comp[sv]; c >= 0 {
			perComp[c]++
		} else {
			best = 1
		}
	}
	// Ties go to the lowest component id, so the report depends on the
	// network alone.
	for c, cnt := range perComp {
		if cnt > best {
			best, bestComp = cnt, int32(c)
		}
	}
	r.LargestComponentFrac = float64(best) / float64(r.Servers)
	r.Connected = best == r.Servers

	// APL inside the largest component, in integer sums: its hosting
	// switches go through the path-length kernel graph.HopBatch at a time,
	// and each unordered server pair is counted from its lower-indexed host.
	if best < 2 {
		return r, nil
	}
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
	g := nw.Graph()
	servers := nw.Servers()
	seen := make([]bool, nw.N())
	var best []int
	for _, s := range servers {
		if seen[s] {
			continue
		}
		dist := g.BFS(s)
		var comp []int
		for _, sv := range servers {
			if dist[sv] >= 0 && !seen[sv] {
				seen[sv] = true
				comp = append(comp, sv)
			}
		}
		if len(comp) > len(best) {
			best = comp
		}
	}
	return best
}
