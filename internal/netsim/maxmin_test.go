package netsim

import (
	"math"
	"testing"

	"flattree/internal/fattree"
	"flattree/internal/mcf"
	"flattree/internal/routing"
)

func TestSingleFlowLine(t *testing.T) {
	nw, servers := lineNet(3)
	res, err := MaxMin(nw, routing.NewKSP(nw, 2), []mcf.Commodity{
		{Src: servers[0], Dst: servers[2], Demand: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Lambda-1) > 1e-9 {
		t.Errorf("lambda = %g, want 1 (single flow fills the line)", res.Lambda)
	}
}

func TestFairShareOnSharedLink(t *testing.T) {
	nw, servers := lineNet(2)
	comms := []mcf.Commodity{
		{Src: servers[0], Dst: servers[1], Demand: 1},
		{Src: servers[0], Dst: servers[1], Demand: 1},
	}
	res, err := MaxMin(nw, routing.NewKSP(nw, 1), comms)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Lambda-0.5) > 1e-9 {
		t.Errorf("lambda = %g, want 0.5 (two flows share one unit link)", res.Lambda)
	}
}

func TestLocalCommodityUnconstrained(t *testing.T) {
	nw, s0, s1 := sameSwitchNet()
	res, err := MaxMin(nw, routing.NewKSP(nw, 1), []mcf.Commodity{{Src: s0, Dst: s1, Demand: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Lambda, 1) {
		t.Errorf("same-switch flow should be unconstrained, got %g", res.Lambda)
	}
}

// TestMaxMinNeverExceedsOptimal: flow-level max-min over ECMP paths is
// always a lower bound on the optimal-routing LP throughput.
func TestMaxMinNeverExceedsOptimal(t *testing.T) {
	f, err := fattree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	comms := []mcf.Commodity{
		{Src: f.ServerIDs[0], Dst: f.ServerIDs[8], Demand: 1},
		{Src: f.ServerIDs[1], Dst: f.ServerIDs[12], Demand: 1},
		{Src: f.ServerIDs[4], Dst: f.ServerIDs[15], Demand: 1},
	}
	res, err := MaxMin(f.Net, routing.NewECMP(f.Net, 0), comms)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := mcf.MaxConcurrentFlowExact(f.Net, comms)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda > exact+1e-9 {
		t.Errorf("max-min %g exceeds optimal %g", res.Lambda, exact)
	}
	if res.Lambda <= 0 {
		t.Errorf("lambda = %g, want > 0", res.Lambda)
	}
	if res.Subflows == 0 || res.MeanLambda < res.Lambda {
		t.Errorf("result inconsistent: %+v", res)
	}
}

// TestECMPSpreadsLoad: with enough ECMP paths, cross-pod hot-spot flows in
// a fat-tree should get more than a single path's share.
func TestECMPSpreadsLoad(t *testing.T) {
	f, err := fattree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	// One source edge switch to 3 different pods: each commodity has 4
	// ECMP paths; aggregate capacity out of the edge is 2.
	comms := []mcf.Commodity{
		{Src: f.ServerIDs[0], Dst: f.ServerIDs[4], Demand: 1},
		{Src: f.ServerIDs[0], Dst: f.ServerIDs[8], Demand: 1},
		{Src: f.ServerIDs[0], Dst: f.ServerIDs[12], Demand: 1},
	}
	res, err := MaxMin(f.Net, routing.NewECMP(f.Net, 0), comms)
	if err != nil {
		t.Fatal(err)
	}
	// Fair share of 2 uplinks across 3 commodities = 2/3 each.
	if res.Lambda < 0.5 {
		t.Errorf("lambda = %g, want >= 0.5", res.Lambda)
	}
}

func TestMaxMinErrors(t *testing.T) {
	nw, servers := lineNet(2)
	if _, err := MaxMin(nw, routing.NewKSP(nw, 1), []mcf.Commodity{
		{Src: servers[0], Dst: servers[1], Demand: -1},
	}); err == nil {
		t.Error("negative demand accepted")
	}
	res, err := MaxMin(nw, routing.NewKSP(nw, 1), nil)
	if err != nil || !math.IsInf(res.Lambda, 1) {
		t.Errorf("empty commodities: %+v, %v", res, err)
	}
}
