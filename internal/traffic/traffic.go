// Package traffic generates the workloads of the flat-tree paper's
// evaluation (§3.1, §3.3): broadcast/incast clusters of ~1000 servers with
// a single hot-spot server, and all-to-all clusters of ~20 servers, placed
// with strong locality (packed continuously across servers), weak locality
// (packed randomly within pods), or no locality (random across the whole
// network).
package traffic

import (
	"fmt"

	"flattree/internal/graph"
	"flattree/internal/mcf"
	"flattree/internal/topo"
)

// Placement is a workload placement policy.
type Placement uint8

const (
	// Locality packs clusters continuously across servers in index order.
	Locality Placement = iota
	// WeakLocality packs each cluster into randomly chosen pods, using a
	// pod's free servers before spilling to another pod — the paper's
	// worst-case model of resource fragmentation.
	WeakLocality
	// NoLocality scatters cluster members uniformly across the network.
	NoLocality
)

// String returns the placement name.
func (p Placement) String() string {
	switch p {
	case Locality:
		return "locality"
	case WeakLocality:
		return "weak-locality"
	case NoLocality:
		return "no-locality"
	}
	return fmt.Sprintf("placement(%d)", uint8(p))
}

// Cluster is one service cluster: a set of server node IDs, with a hot-spot
// member for broadcast/incast patterns.
type Cluster struct {
	Servers []int
	Hotspot int
}

// Spec describes a clustered workload.
type Spec struct {
	// ClusterSize is the requested cluster size; it is capped at the
	// network's server count (the paper sweeps k from 4, where 1000-server
	// clusters exceed the whole network).
	ClusterSize int
	// Placement selects the placement policy.
	Placement Placement
	// Seed drives all randomized choices (hot-spot selection, random
	// placements).
	Seed uint64
}

// MakeClusters partitions servers into floor(N/size) clusters (at least
// one; the last servers stay idle if N is not a multiple, and the single
// cluster is the whole network when N < size), then picks one random
// hot-spot per cluster. serverIDs must be the topology's servers in index
// order.
func MakeClusters(nw *topo.Network, serverIDs []int, spec Spec) ([]Cluster, error) {
	n := len(serverIDs)
	if n < 2 {
		return nil, fmt.Errorf("traffic: need at least 2 servers, have %d", n)
	}
	size := spec.ClusterSize
	if size < 2 {
		return nil, fmt.Errorf("traffic: cluster size %d too small", size)
	}
	if size > n {
		size = n
	}
	num := n / size
	rng := graph.NewRNG(spec.Seed)

	var order []int
	switch spec.Placement {
	case Locality:
		order = append(order, serverIDs...)
	case NoLocality:
		order = append(order, serverIDs...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	case WeakLocality:
		var err error
		order, err = weakLocalityOrder(nw, serverIDs, size, rng)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("traffic: unknown placement %d", spec.Placement)
	}

	clusters := make([]Cluster, num)
	for c := range clusters {
		members := append([]int(nil), order[c*size:(c+1)*size]...)
		clusters[c] = Cluster{
			Servers: members,
			Hotspot: members[rng.Intn(len(members))],
		}
	}
	return clusters, nil
}

// weakLocalityOrder emits servers so that consecutive runs of `size` fill
// randomly chosen pods first and spill to other random pods only when the
// current pod runs out of free servers.
func weakLocalityOrder(nw *topo.Network, serverIDs []int, size int, rng *graph.RNG) ([]int, error) {
	byPod := make(map[int][]int)
	var podIDs []int
	for _, sv := range serverIDs {
		pod := nw.Nodes[sv].Pod
		if _, ok := byPod[pod]; !ok {
			podIDs = append(podIDs, pod)
		}
		byPod[pod] = append(byPod[pod], sv)
	}
	if len(podIDs) == 0 {
		return nil, fmt.Errorf("traffic: no pods")
	}
	// Shuffle each pod's free list so members within a pod are random.
	for _, pod := range podIDs {
		l := byPod[pod]
		rng.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
	}
	nonEmpty := append([]int(nil), podIDs...)
	order := make([]int, 0, len(serverIDs))
	need := 0
	for len(nonEmpty) > 0 {
		if need == 0 {
			need = size
		}
		pi := rng.Intn(len(nonEmpty))
		pod := nonEmpty[pi]
		free := byPod[pod]
		take := need
		if take > len(free) {
			take = len(free)
		}
		order = append(order, free[:take]...)
		byPod[pod] = free[take:]
		need -= take
		if len(byPod[pod]) == 0 {
			nonEmpty[pi] = nonEmpty[len(nonEmpty)-1]
			nonEmpty = nonEmpty[:len(nonEmpty)-1]
		}
	}
	return order, nil
}

// BroadcastCommodities emits one commodity per (hot-spot, member) pair of
// every cluster — the paper's broadcast/incast hot-spot pattern. Demands
// are unordered pairs; with undirected link capacities the broadcast and
// incast directions are equivalent.
//
// nominalSize normalizes the throughput scale across k: when a cluster had
// to be capped below the nominal size (the paper sweeps k from 4, where
// 1000-server clusters exceed the whole network), per-pair demand is scaled
// so each hot spot still terminates nominalSize-1 demand units, keeping λ
// on the paper's per-1000-server-cluster scale. Pass 0 for plain unit
// demands.
func BroadcastCommodities(clusters []Cluster, nominalSize int) []mcf.Commodity {
	var out []mcf.Commodity
	for _, c := range clusters {
		demand := 1.0
		if nominalSize > len(c.Servers) {
			demand = float64(nominalSize-1) / float64(len(c.Servers)-1)
		}
		for _, sv := range c.Servers {
			if sv == c.Hotspot {
				continue
			}
			out = append(out, mcf.Commodity{Src: c.Hotspot, Dst: sv, Demand: demand})
		}
	}
	return out
}

// AllToAllCommodities emits one commodity per unordered server pair within
// every cluster. nominalSize scales demands like BroadcastCommodities: a
// capped cluster still generates C(nominalSize, 2) total demand units.
func AllToAllCommodities(clusters []Cluster, nominalSize int) []mcf.Commodity {
	var out []mcf.Commodity
	for _, c := range clusters {
		demand := 1.0
		sz := len(c.Servers)
		if nominalSize > sz {
			demand = float64(nominalSize*(nominalSize-1)) / float64(sz*(sz-1))
		}
		for i := 0; i < sz; i++ {
			for j := i + 1; j < sz; j++ {
				out = append(out, mcf.Commodity{Src: c.Servers[i], Dst: c.Servers[j], Demand: demand})
			}
		}
	}
	return out
}

// Permutation gives every server unit demand to one pseudo-random peer (a
// seeded permutation, fixed points dropped): the classic uniform stress
// workload. Same-switch pairs are dropped by the solver's aggregation, so
// only the cross-fabric demands remain.
func Permutation(servers []int, seed uint64) []mcf.Commodity {
	if len(servers) < 2 {
		return nil
	}
	perm := graph.NewRNG(seed).Perm(len(servers))
	comms := make([]mcf.Commodity, 0, len(servers))
	for i, p := range perm {
		if i == p {
			continue
		}
		comms = append(comms, mcf.Commodity{Src: servers[i], Dst: servers[p], Demand: 1})
	}
	return comms
}
