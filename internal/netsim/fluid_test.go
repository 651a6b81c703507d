package netsim

import (
	"context"
	"errors"
	"math"
	"testing"

	"flattree/internal/core"
	"flattree/internal/fattree"
	"flattree/internal/graph"
	"flattree/internal/routing"
)

func TestSingleFlowFCT(t *testing.T) {
	nw, servers := lineNet(2)
	res, err := Fluid(context.Background(), nw, routing.NewKSP(nw, 1), []Arrival{
		{Time: 1, Src: servers[0], Dst: servers[1], Size: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != 1 {
		t.Fatalf("completed %d flows", len(res.Completed))
	}
	// Unit capacity, size 5 -> FCT 5, finishing at t=6.
	if math.Abs(res.Completed[0].FCT()-5) > 1e-9 || math.Abs(res.Completed[0].Finish-6) > 1e-9 {
		t.Errorf("record = %+v", res.Completed[0])
	}
}

func TestTwoFlowsShareLink(t *testing.T) {
	nw, servers := lineNet(2)
	res, err := Fluid(context.Background(), nw, routing.NewKSP(nw, 1), []Arrival{
		{Time: 0, Src: servers[0], Dst: servers[1], Size: 2},
		{Time: 0, Src: servers[0], Dst: servers[1], Size: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both share a unit link at rate 1/2: both finish at t=4.
	for _, f := range res.Completed {
		if math.Abs(f.Finish-4) > 1e-9 {
			t.Errorf("finish = %g, want 4", f.Finish)
		}
	}
}

func TestSequentialFlowsDontShare(t *testing.T) {
	nw, servers := lineNet(2)
	res, err := Fluid(context.Background(), nw, routing.NewKSP(nw, 1), []Arrival{
		{Time: 0, Src: servers[0], Dst: servers[1], Size: 1},
		{Time: 10, Src: servers[0], Dst: servers[1], Size: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Completed {
		if math.Abs(f.FCT()-1) > 1e-9 {
			t.Errorf("FCT = %g, want 1 (no overlap)", f.FCT())
		}
	}
	if res.MeanFCT != 1 || res.P99FCT != 1 {
		t.Errorf("stats = %+v", res)
	}
}

func TestSameSwitchFlowInstant(t *testing.T) {
	nw, s0, s1 := sameSwitchNet()
	res, err := Fluid(context.Background(), nw, routing.NewKSP(nw, 1), []Arrival{
		{Time: 3, Src: s0, Dst: s1, Size: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != 1 || res.Completed[0].FCT() != 0 {
		t.Errorf("res = %+v", res)
	}
}

// TestDeparturesFreeCapacity: a short flow arriving alongside a long one
// finishes early, and the long one speeds up afterward.
func TestDeparturesFreeCapacity(t *testing.T) {
	nw, servers := lineNet(2)
	res, err := Fluid(context.Background(), nw, routing.NewKSP(nw, 1), []Arrival{
		{Time: 0, Src: servers[0], Dst: servers[1], Size: 10},
		{Time: 0, Src: servers[0], Dst: servers[1], Size: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var short, long FlowRecord
	for _, f := range res.Completed {
		if f.Size == 1 {
			short = f
		} else {
			long = f
		}
	}
	// Short: shares at 1/2 until done at t=2. Long: 1 unit sent by t=2,
	// remaining 9 at rate 1 -> finishes t=11.
	if math.Abs(short.Finish-2) > 1e-9 {
		t.Errorf("short finish = %g, want 2", short.Finish)
	}
	if math.Abs(long.Finish-11) > 1e-9 {
		t.Errorf("long finish = %g, want 11", long.Finish)
	}
}

// TestConservation: total bytes delivered equals total bytes offered on a
// fat-tree with a random workload.
func TestFatTreeWorkload(t *testing.T) {
	f, err := fattree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := graph.NewRNG(5)
	arr := PoissonPairs(f.ServerIDs, 2.0, 1.0, 60, rng)
	res, err := Fluid(context.Background(), f.Net, routing.NewKSP(f.Net, 4), arr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != 60 || res.Unfinished != 0 {
		t.Fatalf("completed %d, unfinished %d", len(res.Completed), res.Unfinished)
	}
	if res.MeanFCT < 1 {
		t.Errorf("mean FCT %g below serialization bound 1", res.MeanFCT)
	}
	if res.P99FCT < res.MeanFCT {
		t.Errorf("p99 %g < mean %g", res.P99FCT, res.MeanFCT)
	}
	// FCTs must be monotone-consistent: finish >= arrival for every flow.
	for _, fr := range res.Completed {
		if fr.Finish < fr.Time-1e-9 {
			t.Fatalf("flow finished before it arrived: %+v", fr)
		}
	}
}

// TestHotspotFasterOnGlobalRandom: the convertibility payoff on a dynamic
// metric — the same hot-spot flow sequence completes faster after
// converting the flat-tree from Clos to global-random mode.
func TestHotspotFasterOnGlobalRandom(t *testing.T) {
	ft, err := core.Build(core.Params{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode core.Mode) float64 {
		if err := ft.SetUniformMode(mode); err != nil {
			t.Fatal(err)
		}
		nw := ft.Net()
		servers := nw.Servers()
		rng := graph.NewRNG(11)
		arr := PoissonHotspot(servers, servers[0], 4.0, 1.0, 150, rng)
		res, err := Fluid(context.Background(), nw, routing.NewKSP(nw, 8), arr)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanFCT
	}
	clos := run(core.ModeClos)
	global := run(core.ModeGlobalRandom)
	if global >= clos {
		t.Errorf("global-random mean FCT %g not better than Clos %g", global, clos)
	}
}

func TestFluidErrors(t *testing.T) {
	nw, servers := lineNet(2)
	if _, err := Fluid(context.Background(), nw, routing.NewKSP(nw, 1), []Arrival{
		{Time: 0, Src: -5, Dst: servers[1], Size: 1},
	}); err == nil {
		t.Error("bad src accepted")
	}
	// Concurrency limit: two short flows drain, then one flow more than
	// maxConcurrent arrives at once. The run stops with an error, and its
	// partial result is still summarized over the two that completed.
	arr := []Arrival{
		{Time: 0, Src: servers[0], Dst: servers[1], Size: 1},
		{Time: 0, Src: servers[0], Dst: servers[1], Size: 1},
	}
	for i := 0; i <= maxConcurrent; i++ {
		arr = append(arr, Arrival{Time: 10, Src: servers[0], Dst: servers[1], Size: 1e9})
	}
	res, err := Fluid(context.Background(), nw, routing.NewKSP(nw, 1), arr)
	if err == nil {
		t.Fatal("concurrency limit not enforced")
	}
	if len(res.Completed) != 2 || res.Unfinished != maxConcurrent {
		t.Errorf("completed %d, unfinished %d; want 2 and %d", len(res.Completed), res.Unfinished, maxConcurrent)
	}
	if res.MeanFCT != 2 || res.P99FCT != 2 {
		t.Errorf("partial result not summarized: mean %g, p99 %g, want 2 and 2", res.MeanFCT, res.P99FCT)
	}
}

func TestGenerators(t *testing.T) {
	rng := graph.NewRNG(1)
	servers := []int{10, 11, 12, 13}
	hs := PoissonHotspot(servers, 10, 1.0, 2.0, 50, rng)
	if len(hs) != 50 {
		t.Fatalf("len = %d", len(hs))
	}
	last := 0.0
	for _, a := range hs {
		if a.Src != 10 || a.Dst == 10 || a.Size != 2 {
			t.Fatalf("bad arrival %+v", a)
		}
		if a.Time <= last {
			t.Fatal("arrival times not increasing")
		}
		last = a.Time
	}
	pp := PoissonPairs(servers, 1.0, 1.0, 50, rng)
	for _, a := range pp {
		if a.Src == a.Dst {
			t.Fatal("self flow generated")
		}
	}
}

// TestSimulateCancelled: a cancelled context aborts the event loop with a
// wrapped ctx error and a partial (still internally consistent) result,
// instead of silently returning a complete-looking one.
func TestSimulateCancelled(t *testing.T) {
	nw, servers := lineNet(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Fluid(ctx, nw, routing.NewKSP(nw, 1), []Arrival{
		{Time: 1, Src: servers[0], Dst: servers[1], Size: 5},
	})
	if err == nil {
		t.Fatal("cancelled simulation returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if len(res.Completed) != 0 {
		t.Errorf("cancelled-at-start run completed %d flows", len(res.Completed))
	}
}
