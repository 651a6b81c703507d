package netsim

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"flattree/internal/core"
	"flattree/internal/graph"
	"flattree/internal/mcf"
	"flattree/internal/routing"
	"flattree/internal/topo"
)

// lineNet builds sw0 - sw1 - … - sw(n-1) and returns it with one server per
// switch, in line order.
func lineNet(n int) (*topo.Network, []int) {
	b := topo.NewBuilder("line")
	sw := make([]int, n)
	for i := range sw {
		sw[i] = b.AddNode(topo.EdgeSwitch, 0, i, 8)
	}
	for i := 0; i+1 < n; i++ {
		b.AddLink(sw[i], sw[i+1], topo.TagClos)
	}
	servers := make([]int, n)
	for i := range sw {
		servers[i] = b.AddNode(topo.Server, 0, i, 1)
		b.AddLink(servers[i], sw[i], topo.TagClos)
	}
	return b.Build(), servers
}

// sameSwitchNet builds two linked switches with both servers on the first.
func sameSwitchNet() (nw *topo.Network, s0, s1 int) {
	b := topo.NewBuilder("one")
	sw := b.AddNode(topo.EdgeSwitch, 0, 0, 4)
	sw2 := b.AddNode(topo.EdgeSwitch, 0, 1, 4)
	b.AddLink(sw, sw2, topo.TagClos)
	s0 = b.AddNode(topo.Server, 0, 0, 1)
	s1 = b.AddNode(topo.Server, 0, 1, 1)
	b.AddLink(s0, sw, topo.TagClos)
	b.AddLink(s1, sw, topo.TagClos)
	return b.Build(), s0, s1
}

// referenceFill is the flow-major progressive filling the fluid simulator
// carried before it shared fill: same levels, but each round scans every
// unfrozen flow for a saturated link instead of walking the saturated links'
// flow lists. Kept as the oracle fill is checked against bit for bit.
func referenceFill(capacity []float64, flows [][]int32) []float64 {
	rate := make([]float64, len(flows))
	unfrozen := make([]int, len(capacity))
	for _, links := range flows {
		for _, li := range links {
			unfrozen[li]++
		}
	}
	used := make([]float64, len(capacity))
	frozen := make([]bool, len(flows))
	nFrozen := 0
	level := 0.0
	for nFrozen < len(flows) {
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
			// Remaining flows traverse no capacitated link.
			for fi := range flows {
				if !frozen[fi] {
					rate[fi] = math.Inf(1)
				}
			}
			break
		}
		level += best
		for li := range capacity {
			used[li] += best * float64(unfrozen[li])
		}
		for fi, links := range flows {
			if frozen[fi] {
				continue
			}
			for _, li := range links {
				if capacity[li]-used[li] <= 1e-12 {
					rate[fi] = level
					frozen[fi] = true
					nFrozen++
					for _, l2 := range links {
						unfrozen[l2]--
					}
					break
				}
			}
		}
	}
	return rate
}

// fillInstance draws random path sets over random pooled capacities. Every
// fourth instance routes all flows over all links; every instance with a
// spare link gives its last flow that link to itself, and every fifth adds a
// flow that crosses no link at all.
func fillInstance(seed uint64) (capacity []float64, flows [][]int32) {
	rng := graph.NewRNG(seed)
	nLinks := 1 + rng.Intn(12)
	capacity = make([]float64, nLinks)
	for li := range capacity {
		capacity[li] = float64(1 + rng.Intn(3))
	}
	shared := nLinks
	if nLinks > 1 {
		shared-- // the last link is reserved for the lone flow
	}
	for nFlows := rng.Intn(20); len(flows) < nFlows; {
		var links []int32
		if seed%4 == 0 {
			for li := 0; li < shared; li++ {
				links = append(links, int32(li))
			}
		} else {
			for _, li := range rng.Perm(shared)[:1+rng.Intn(min(shared, 4))] {
				links = append(links, int32(li))
			}
		}
		flows = append(flows, links)
	}
	if nLinks > 1 {
		flows = append(flows, []int32{int32(nLinks - 1)})
	}
	if seed%5 == 0 {
		flows = append(flows, nil)
	}
	return capacity, flows
}

// TestFillMatchesReference: the shared kernel and the flow-major loop it
// replaced are one algorithm — every rate agrees to the bit.
func TestFillMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 500; seed++ {
		capacity, flows := fillInstance(seed)
		want := referenceFill(capacity, flows)
		got := make([]float64, len(flows))
		fill(capacity, flows, got)
		for fi := range flows {
			if math.Float64bits(got[fi]) != math.Float64bits(want[fi]) {
				t.Fatalf("seed %d flow %d %v: fill %v, reference %v", seed, fi, flows[fi], got[fi], want[fi])
			}
		}
	}
}

// TestFillIsMaxMin checks the max-min certificate: no link carries more
// than its capacity, and every flow crosses a saturated link on which no
// other flow has a larger rate — so no flow's rate can rise without
// lowering one that is no larger.
func TestFillIsMaxMin(t *testing.T) {
	const tol = 1e-9
	for seed := uint64(0); seed < 500; seed++ {
		capacity, flows := fillInstance(seed)
		rate := make([]float64, len(flows))
		fill(capacity, flows, rate)
		carried := make([]float64, len(capacity))
		top := make([]float64, len(capacity)) // largest rate on the link
		for fi, links := range flows {
			for _, li := range links {
				carried[li] += rate[fi]
				top[li] = math.Max(top[li], rate[fi])
			}
		}
		for li := range capacity {
			if carried[li] > capacity[li]+tol {
				t.Fatalf("seed %d: link %d carries %g of %g", seed, li, carried[li], capacity[li])
			}
		}
		for fi, links := range flows {
			if len(links) == 0 {
				if !math.IsInf(rate[fi], 1) {
					t.Fatalf("seed %d: link-less flow %d rated %g", seed, fi, rate[fi])
				}
				continue
			}
			bottleneck := false
			for _, li := range links {
				if carried[li] >= capacity[li]-tol && rate[fi] >= top[li]-tol {
					bottleneck = true
				}
			}
			if !bottleneck {
				t.Fatalf("seed %d: flow %d (rate %g) has no bottleneck link", seed, fi, rate[fi])
			}
		}
	}
}

// TestFluidPins holds one fluid run per mode (k = 8, the BenchmarkDynsimFCT
// workload) to the completion times internal/dynsim produced before the
// simulators were merged: sha256 over the Finish bits, in completion order.
func TestFluidPins(t *testing.T) {
	ft, err := core.Build(core.Params{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range []struct {
		mode core.Mode
		want string
	}{
		{core.ModeClos, "81ce32dd5ebfc9f5194ddb903e545c3c1e15c4f9c8469db1c8e9dad06e52c8f6"},
		{core.ModeGlobalRandom, "d51f790f4730d93c4c60d80d759829cfb714bfe3951e3847d62161f8a4282f2f"},
		{core.ModeLocalRandom, "8a0063361096437440edff88132516353cb324af601f448625b6dbc9b8c5f940"},
	} {
		if err := ft.SetUniformMode(pin.mode); err != nil {
			t.Fatal(err)
		}
		nw := ft.Net()
		servers := nw.Servers()
		arr := PoissonHotspot(servers, servers[0], 4.0, 1.0, 150, graph.NewRNG(11))
		res, err := Fluid(context.Background(), nw, routing.NewKSP(nw, 8), arr)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, c := range res.Completed {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(c.Finish))
			h.Write(b[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != pin.want {
			t.Errorf("%v: %d completion times hash to %s, pinned %s", pin.mode, len(res.Completed), got, pin.want)
		}
	}
}

// TestBadInputIsAnError feeds every entry point endpoints and amounts it
// must refuse; each has to come back as an error, not a panic.
func TestBadInputIsAnError(t *testing.T) {
	b := topo.NewBuilder("detached")
	s0 := b.AddNode(topo.EdgeSwitch, 0, 0, 4)
	s1 := b.AddNode(topo.EdgeSwitch, 0, 1, 4)
	b.AddLink(s0, s1, topo.TagClos)
	good := b.AddNode(topo.Server, 0, 0, 1)
	b.AddLink(good, s0, topo.TagClos)
	far := b.AddNode(topo.Server, 0, 1, 1)
	b.AddLink(far, s1, topo.TagClos)
	loose := b.AddNode(topo.Server, 0, 2, 1)
	nw := b.Build()

	for _, tc := range []struct {
		name     string
		src, dst int
		amount   float64 // demand or flow size
		want     string
	}{
		{"src below range", -1, far, 1, "out of range"},
		{"dst past range", good, nw.N(), 1, "out of range"},
		{"detached src", loose, far, 1, "detached"},
		{"detached dst", good, loose, 1, "detached"},
		{"zero amount", good, far, 0, "non-positive"},
		{"negative amount", good, far, -2, "non-positive"},
		{"NaN amount", good, far, math.NaN(), "non-positive"},
	} {
		check := func(entry string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, %s: error %v, want one naming %q", tc.name, entry, err, tc.want)
			}
		}
		_, err := MaxMin(nw, routing.NewKSP(nw, 1), []mcf.Commodity{{Src: tc.src, Dst: tc.dst, Demand: tc.amount}})
		check("MaxMin", err)
		_, err = Fluid(context.Background(), nw, routing.NewKSP(nw, 1), []Arrival{{Src: tc.src, Dst: tc.dst, Size: tc.amount}})
		check("Fluid", err)
		if tc.want != "non-positive" { // a packet has no amount to get wrong
			_, err = Packets(context.Background(), nw, routing.BuildTable(nw), []Packet{{Src: tc.src, Dst: tc.dst}})
			check("Packets", err)
		}
	}
}
