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

func TestSinglePacketLatency(t *testing.T) {
	nw, servers := lineNet(3)
	table := routing.BuildTable(nw)
	res, err := Packets(context.Background(), nw, table, []Packet{
		{Time: 0, Src: servers[0], Dst: servers[2], Flow: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 || res.Dropped != 0 {
		t.Fatalf("res = %+v", res)
	}
	// Two switch hops: 2 transmissions (1 each) + 2 propagations (0.05).
	if math.Abs(res.MeanLatency-2.1) > 1e-9 {
		t.Errorf("latency = %g, want 2.1", res.MeanLatency)
	}
	if res.MeanHops != 2 {
		t.Errorf("hops = %g, want 2", res.MeanHops)
	}
}

func TestQueueingDelay(t *testing.T) {
	nw, servers := lineNet(3)
	table := routing.BuildTable(nw)
	// Two simultaneous packets on the same path: the second waits one
	// transmission time at the first link.
	res, err := Packets(context.Background(), nw, table, []Packet{
		{Time: 0, Src: servers[0], Dst: servers[2], Flow: 1},
		{Time: 0, Src: servers[0], Dst: servers[2], Flow: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 2 {
		t.Fatalf("delivered %d", res.Delivered)
	}
	// Latencies 2.1 and 3.1 -> mean 2.6 (pipelining hides nothing at the
	// bottleneck first link; the second link is free when pkt2 arrives).
	if math.Abs(res.MeanLatency-2.6) > 1e-9 {
		t.Errorf("mean latency = %g, want 2.6", res.MeanLatency)
	}
	if res.MaxQueue != 2 {
		t.Errorf("max queue = %d, want 2", res.MaxQueue)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	nw, servers := lineNet(3)
	table := routing.BuildTable(nw)
	// Three more simultaneous packets than the first link's queue holds.
	var pkts []Packet
	for i := 0; i < queueLimit+3; i++ {
		pkts = append(pkts, Packet{Time: 0, Src: servers[0], Dst: servers[2], Flow: uint64(i)})
	}
	res, err := Packets(context.Background(), nw, table, pkts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 3 || res.Delivered != queueLimit {
		t.Errorf("res = %+v, want %d delivered / 3 dropped", res, queueLimit)
	}
	if res.Sent != queueLimit+3 || res.Delivered+res.Dropped != res.Sent {
		t.Errorf("conservation violated: %+v", res)
	}
}

func TestSameSwitchDeliveryInstant(t *testing.T) {
	nw, s0, s1 := sameSwitchNet()
	res, err := Packets(context.Background(), nw, routing.BuildTable(nw), []Packet{
		{Time: 1, Src: s0, Dst: s1, Flow: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 || res.MeanLatency != 0 || res.MeanHops != 0 {
		t.Errorf("res = %+v", res)
	}
}

// TestECMPFlowConsistency: packets of one flow take one path (no
// reordering across equal-cost paths); packets of many flows spread.
func TestECMPFlowConsistency(t *testing.T) {
	f, err := fattree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	table := routing.BuildTable(f.Net)
	// Single flow, many packets: deliveries must be in order (FIFO along
	// a single path).
	var pkts []Packet
	for i := 0; i < 20; i++ {
		pkts = append(pkts, Packet{Time: float64(i) * 0.1, Src: f.ServerIDs[0], Dst: f.ServerIDs[12], Flow: 7})
	}
	res, err := Packets(context.Background(), f.Net, table, pkts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 20 {
		t.Fatalf("delivered %d/20", res.Delivered)
	}
	// All packets of one flow share the path, so hop counts are equal:
	// mean is an integer.
	if res.MeanHops != math.Trunc(res.MeanHops) {
		t.Errorf("single flow took multiple paths: mean hops %g", res.MeanHops)
	}
}

// TestFatTreeUniformTraffic: conservation and sane latency under load.
func TestFatTreeUniformTraffic(t *testing.T) {
	f, err := fattree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := graph.NewRNG(3)
	pkts := PoissonPackets(f.ServerIDs, 5.0, 400, 4, rng)
	res, err := Packets(context.Background(), f.Net, routing.BuildTable(f.Net), pkts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered+res.Dropped != res.Sent {
		t.Fatalf("conservation violated: %+v", res)
	}
	if res.Delivered < res.Sent*9/10 {
		t.Errorf("too many drops at light load: %+v", res)
	}
	// Minimum possible latency is 2 hops * (1 + 0.05).
	if res.MeanLatency < 2.1 {
		t.Errorf("mean latency %g below physical floor", res.MeanLatency)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Errorf("utilization %g out of range", res.Utilization)
	}
}

// TestGlobalRandomLowerLatency: the Figure-5 APL gap shows up as packet
// latency — flat-tree in global-random mode delivers uniform traffic with
// lower mean latency than the same plant in Clos mode.
func TestGlobalRandomLowerLatency(t *testing.T) {
	ft, err := core.Build(core.Params{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode core.Mode) PacketResult {
		if err := ft.SetUniformMode(mode); err != nil {
			t.Fatal(err)
		}
		nw := ft.Net()
		rng := graph.NewRNG(17)
		pkts := PoissonPackets(nw.Servers(), 10.0, 1500, 4, rng)
		res, err := Packets(context.Background(), nw, routing.BuildTable(nw), pkts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clos := run(core.ModeClos)
	global := run(core.ModeGlobalRandom)
	if global.MeanHops >= clos.MeanHops {
		t.Errorf("global-random hops %g not below Clos %g", global.MeanHops, clos.MeanHops)
	}
	if global.MeanLatency >= clos.MeanLatency {
		t.Errorf("global-random latency %g not below Clos %g", global.MeanLatency, clos.MeanLatency)
	}
}

func TestPacketErrors(t *testing.T) {
	nw, servers := lineNet(3)
	table := routing.BuildTable(nw)
	if _, err := Packets(context.Background(), nw, table, []Packet{{Src: -1, Dst: servers[0]}}); err == nil {
		t.Error("bad src accepted")
	}
}

// TestPacketsCancelled: a cancelled context ends the packet run with a
// wrapped ctx error and a result that does not look complete.
func TestPacketsCancelled(t *testing.T) {
	nw, servers := lineNet(3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Packets(ctx, nw, routing.BuildTable(nw), []Packet{
		{Time: 1, Src: servers[0], Dst: servers[2], Flow: 1},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res.Sent != 1 || res.Delivered != 0 {
		t.Errorf("cancelled-at-start run: %+v", res)
	}
}
