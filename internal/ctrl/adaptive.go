package ctrl

import (
	"fmt"

	"flattree/internal/core"
)

// FlowObservation is one measured flow: endpoints (server node IDs) and
// bytes carried. The controller consumes these from whatever measurement
// plane exists — internal/netsim's FlowRecords in this repository.
type FlowObservation struct {
	Src, Dst int
	Bytes    float64
}

// Advise's classification thresholds.
const (
	// crossPodFraction is the share of a pod's bytes crossing pods above
	// which its workload is network-wide (global-random zone).
	crossPodFraction = 0.5
	// idleFraction is the share of the mean per-pod traffic below which a
	// pod is left in (or converted back to) Clos, the cheapest mode to
	// convert away from later.
	idleFraction = 0.05
)

// PodAdvice explains the recommendation for one pod.
type PodAdvice struct {
	Pod        int
	Bytes      float64 // bytes with >= 1 endpoint homed in this pod
	CrossFrac  float64 // fraction of those bytes crossing pods
	Recommends core.Mode
}

// Advise classifies measured traffic against the flat-tree's pod structure
// and recommends a per-pod mode assignment, the §2.6 controller's "adaptive
// manner through network measurement": pods whose traffic mostly crosses
// pods (large clusters, hot spots) want the approximated global random
// graph; pods whose traffic stays inside (small all-to-all clusters) want
// local random graphs; near-idle pods stay Clos.
//
// Pod membership is by the servers' home pods, which conversion never
// changes, so advice remains stable across reconfigurations. Note that a
// fragmented global zone loses side links at fragment boundaries
// (ConfigFor falls back to Local there); placement software that can
// migrate workloads should prefer packing global-zone tenants into one
// contiguous run of pods.
func Advise(ft *core.FlatTree, obs []FlowObservation) ([]core.Mode, []PodAdvice, error) {
	k := ft.Params.K
	nw := ft.Net()
	podOf := func(v int) (int, error) {
		if v < 0 || v >= nw.N() {
			return 0, fmt.Errorf("ctrl: observation references node %d", v)
		}
		p := nw.Nodes[v].Pod
		if p < 0 || p >= k {
			return 0, fmt.Errorf("ctrl: node %d has no home pod", v)
		}
		return p, nil
	}

	bytesTotal := make([]float64, k)
	bytesCross := make([]float64, k)
	for _, o := range obs {
		if o.Bytes < 0 {
			return nil, nil, fmt.Errorf("ctrl: negative bytes in observation %+v", o)
		}
		ps, err := podOf(o.Src)
		if err != nil {
			return nil, nil, err
		}
		pd, err := podOf(o.Dst)
		if err != nil {
			return nil, nil, err
		}
		bytesTotal[ps] += o.Bytes
		if ps != pd {
			bytesCross[ps] += o.Bytes
			bytesTotal[pd] += o.Bytes
			bytesCross[pd] += o.Bytes
		}
	}
	mean := 0.0
	for _, b := range bytesTotal {
		mean += b
	}
	mean /= float64(k)

	modes := make([]core.Mode, k)
	advice := make([]PodAdvice, k)
	for p := 0; p < k; p++ {
		a := PodAdvice{Pod: p, Bytes: bytesTotal[p]}
		if bytesTotal[p] > 0 {
			a.CrossFrac = bytesCross[p] / bytesTotal[p]
		}
		switch {
		//flatlint:ignore floatcmp mean is exactly 0 iff no traffic was observed at all
		case mean == 0 || bytesTotal[p] < idleFraction*mean:
			a.Recommends = core.ModeClos
		case a.CrossFrac > crossPodFraction:
			a.Recommends = core.ModeGlobalRandom
		default:
			a.Recommends = core.ModeLocalRandom
		}
		modes[p] = a.Recommends
		advice[p] = a
	}
	return modes, advice, nil
}
