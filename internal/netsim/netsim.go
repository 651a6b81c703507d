// Package netsim holds the repository's traffic simulators. They answer
// three questions about one model of the switch fabric — unit-capacity
// switch-switch links with parallel cables pooled, uncapacitated server
// links, traffic between two servers of one switch never entering the
// fabric:
//
//   - MaxMin: what throughput does a fixed path system reach? Commodities
//     are spread over a routing.Scheme's candidate paths and rated by max-min
//     fairness; comparing its λ against internal/mcf's quantifies how much of
//     the optimal-routing throughput the k-shortest-paths routing the paper's
//     §2.6 proposes for the random-graph modes actually achieves.
//   - Fluid: how long do flows take? Flows arrive over time, share links
//     max-min fairly and complete; flow completion time is the dynamic
//     metric operators watch, and gives the §2.6 controller's "adaptive
//     manner through network measurement" something concrete to measure.
//   - Packets: what latency do packets see? A discrete-event store-and-forward
//     run with per-flow ECMP hashing and finite FIFO queues makes the
//     path-length differences of Figures 5 and 6 observable as time on the
//     wire.
//
// The fabric model, the progressive-filling kernel, the Poisson generators
// and the latency summary are written once in this file; the entry points
// differ only in what they simulate on top.
package netsim

import (
	"fmt"
	"math"
	"sort"

	"flattree/internal/graph"
	"flattree/internal/routing"
	"flattree/internal/topo"
)

type pair struct{ a, b int32 }

// fabric is the switch-level view of a network that every entry point
// simulates on.
type fabric struct {
	nw *topo.Network
	// linkIdx maps an unordered switch pair (a < b) to its pooled link.
	linkIdx map[pair]int32
	// capacity of each pooled link: one unit per parallel cable.
	capacity []float64
	// scheme supplies candidate paths; routes caches their translation to
	// link lists per directed switch pair.
	scheme routing.Scheme
	routes map[pair][][]int32
}

func newFabric(nw *topo.Network, scheme routing.Scheme) *fabric {
	f := &fabric{
		nw:      nw,
		linkIdx: make(map[pair]int32),
		scheme:  scheme,
		routes:  make(map[pair][][]int32),
	}
	for _, l := range nw.Links {
		if !nw.Nodes[l.A].Kind.IsSwitch() || !nw.Nodes[l.B].Kind.IsSwitch() {
			continue
		}
		a, b := int32(l.A), int32(l.B)
		if a > b {
			a, b = b, a
		}
		if li, ok := f.linkIdx[pair{a, b}]; ok {
			f.capacity[li]++
			continue
		}
		f.linkIdx[pair{a, b}] = int32(len(f.capacity))
		f.capacity = append(f.capacity, 1)
	}
	return f
}

// link returns the pooled link between two switches.
func (f *fabric) link(a, b int32) (int32, bool) {
	if a > b {
		a, b = b, a
	}
	li, ok := f.linkIdx[pair{a, b}]
	return li, ok
}

// host resolves a node to the switch its traffic enters the fabric at: a
// switch stands for itself, a server for the switch it attaches to.
func (f *fabric) host(v int) (int, error) {
	if v < 0 || v >= f.nw.N() {
		return 0, fmt.Errorf("netsim: node %d out of range", v)
	}
	if f.nw.Nodes[v].Kind.IsSwitch() {
		return v, nil
	}
	h := f.nw.HostSwitch(v)
	if h < 0 {
		return 0, fmt.Errorf("netsim: server %d detached", v)
	}
	return h, nil
}

// endpoints resolves both ends of a demand to their switches.
func (f *fabric) endpoints(src, dst int) (s, d int, err error) {
	if s, err = f.host(src); err != nil {
		return 0, 0, err
	}
	if d, err = f.host(dst); err != nil {
		return 0, 0, err
	}
	return s, d, nil
}

// paths returns the scheme's candidate paths from switch s to switch d as
// lists of pooled links, dropping any candidate that leaves the fabric.
func (f *fabric) paths(s, d int) ([][]int32, error) {
	key := pair{int32(s), int32(d)}
	if ps, ok := f.routes[key]; ok {
		return ps, nil
	}
	cand, err := f.scheme.Paths(s, d)
	if err != nil {
		return nil, err
	}
	var out [][]int32
candidates:
	for _, p := range cand {
		links := make([]int32, 0, p.Len())
		for i := 0; i+1 < len(p.Nodes); i++ {
			li, ok := f.link(p.Nodes[i], p.Nodes[i+1])
			if !ok {
				continue candidates
			}
			links = append(links, li)
		}
		out = append(out, links)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("netsim: no usable path %d->%d", s, d)
	}
	f.routes[key] = out
	return out, nil
}

// fill assigns max-min fair rates by progressive filling. flows[i] lists the
// links flow i crosses; rate[i] receives its rate. All flows grow at one
// rate; when a link saturates, the flows crossing it freeze at the level
// reached. A flow that crosses no link is unconstrained and gets +Inf —
// which, no level being infinite, doubles as the not-yet-frozen mark.
func fill(capacity []float64, flows [][]int32, rate []float64) {
	// crossing[start[li]:start[li+1]] lists the flows that cross link li.
	unfrozen := make([]int, len(capacity))
	for fi, links := range flows {
		rate[fi] = math.Inf(1)
		for _, li := range links {
			unfrozen[li]++
		}
	}
	start := make([]int, len(capacity)+1)
	for li, n := range unfrozen {
		start[li+1] = start[li] + n
	}
	crossing := make([]int32, start[len(capacity)])
	next := append([]int(nil), start...)
	for fi, links := range flows {
		for _, li := range links {
			crossing[next[li]] = int32(fi)
			next[li]++
		}
	}
	used := make([]float64, len(capacity))
	level := 0.0
	for {
		// The next link to saturate needs the least (cap − used)/unfrozen.
		best := math.Inf(1)
		for li := range capacity {
			if unfrozen[li] == 0 {
				continue
			}
			if inc := (capacity[li] - used[li]) / float64(unfrozen[li]); inc < best {
				best = inc
			}
		}
		if math.IsInf(best, 1) {
			return // every flow that crosses a link is frozen
		}
		level += best
		for li := range capacity {
			used[li] += best * float64(unfrozen[li])
		}
		for li := range capacity {
			if unfrozen[li] == 0 || capacity[li]-used[li] > 1e-12 {
				continue
			}
			for _, fi := range crossing[start[li]:start[li+1]] {
				if !math.IsInf(rate[fi], 1) {
					continue
				}
				rate[fi] = level
				for _, l2 := range flows[fi] {
					unfrozen[l2]--
				}
			}
		}
	}
}

// meanP99 sorts xs and returns its mean and 99th percentile, or zeros when
// xs is empty.
func meanP99(xs []float64) (mean, p99 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), xs[int(0.99*float64(len(xs)-1))]
}

// expInterval draws one inter-arrival time of a Poisson process.
func expInterval(rate float64, rng *graph.RNG) float64 {
	u := rng.Float64()
	for u == 0 { //flatlint:ignore floatcmp rejects the exact 0.0 Float64 can return, so Log is finite
		u = rng.Float64()
	}
	return -math.Log(u) / rate
}

// peer draws a uniformly random server other than self.
func peer(servers []int, self int, rng *graph.RNG) int {
	p := servers[rng.Intn(len(servers))]
	for p == self {
		p = servers[rng.Intn(len(servers))]
	}
	return p
}
