package core

import (
	"fmt"

	"flattree/internal/topo"
)

// TransitionNetwork builds the effective network at the worst moment of a
// conversion step: pods listed in converting have their converters mid-flip
// and therefore dark — none of their tapped cables carry traffic — while
// every other pod still runs its current configuration. §2.7 notes that
// converter switching (e.g. optical) takes real time; during that window
// the tapped links are simply absent, and an operator staging a conversion
// wants to know the fabric stays connected and how much capacity survives.
//
// Untapped Clos cabling (the edge-agg mesh, untapped server and agg-core
// links) is unaffected by conversions and always present.
func (ft *FlatTree) TransitionNetwork(converting []int) (*topo.Network, error) {
	dark := make([]bool, ft.Params.K)
	for _, p := range converting {
		if p < 0 || p >= ft.Params.K {
			return nil, fmt.Errorf("core: converting pod %d out of range", p)
		}
		dark[p] = true
	}
	// Dark converters are modelled by rebuilding with the current configs
	// but dropping every effective link produced by a converter in a dark
	// pod. Splicing chains that cross pods (side links) are dark if either
	// end is converting; membership is decided by the devices the link
	// touches, which is exact because every converter-produced link
	// involves at least one device of its own pod.
	return ft.effectiveNetwork(ft.configs, dark)
}

// podOfNode returns the home pod of any equipment node (-1 for cores).
func (ft *FlatTree) podOfNode(id int) int {
	k := ft.Params.K
	half := k / 2
	cores := half * half
	podSw := k * k
	switch {
	case id < cores:
		return -1
	case id < cores+podSw:
		return (id - cores) / k
	default:
		return ft.serverPod(id)
	}
}

func (ft *FlatTree) serverPod(id int) int {
	k := ft.Params.K
	half := k / 2
	cores := half * half
	podSw := k * k
	idx := id - cores - podSw
	return idx / (half * half)
}

// TransitionReport quantifies one conversion step's impact.
type TransitionReport struct {
	// Connected reports whether all servers that still have live access
	// links can reach each other.
	Connected bool
	// DetachedServers counts servers whose access link runs through a
	// dark converter (they are offline for the switching window).
	DetachedServers int
	// SurvivingLinks is the switch-switch link count during the window.
	SurvivingLinks int
}

// AnalyzeTransition builds the transition network for the converting pods
// and reports its health (see AnalyzeNetwork).
func (ft *FlatTree) AnalyzeTransition(converting []int) (TransitionReport, error) {
	nw, err := ft.TransitionNetwork(converting)
	if err != nil {
		return TransitionReport{}, err
	}
	return AnalyzeNetwork(nw), nil
}

// AnalyzeNetwork reports the health of a network caught mid-switch (a
// conversion step or a repair's dark window). Servers whose access cable
// is dark are excluded from the connectivity requirement (they are down,
// not partitioned).
func AnalyzeNetwork(nw *topo.Network) TransitionReport {
	var rep TransitionReport
	for _, l := range nw.Links {
		if nw.IsSwitchLink(l) {
			rep.SurvivingLinks++
		}
	}
	comp, _ := nw.Components()
	// Reachability over live servers: all of them in one component.
	rep.Connected = true
	first := int32(-1)
	for _, sv := range nw.Servers() {
		switch {
		case nw.PortsUsed(sv) == 0:
			rep.DetachedServers++
		case first < 0:
			first = comp[sv]
		case comp[sv] != first:
			rep.Connected = false
		}
	}
	return rep
}
