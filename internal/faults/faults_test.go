package faults

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"flattree/internal/core"
	"flattree/internal/fattree"
	"flattree/internal/metrics"
	"flattree/internal/topo"
)

func TestNoFaultsIsIdentity(t *testing.T) {
	f, err := fattree.New(6)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Degrade(f.Net, Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Links) != len(f.Net.Links) || d.N() != f.Net.N() {
		t.Errorf("identity degrade changed the network: %d links vs %d", len(d.Links), len(f.Net.Links))
	}
	r, err := Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Connected || r.LargestComponentFrac != 1 {
		t.Errorf("report = %+v", r)
	}
	apl, err := metrics.AveragePathLength(f.Net)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.APL-apl) > 1e-9 {
		t.Errorf("APL %g != metrics %g", r.APL, apl)
	}
}

func TestLinkFailuresDegradeAPL(t *testing.T) {
	f, err := fattree.New(8)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Analyze(f.Net)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Degrade(f.Net, Scenario{LinkFraction: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	if r.SwitchLinks >= base.SwitchLinks {
		t.Errorf("links did not drop: %d -> %d", base.SwitchLinks, r.SwitchLinks)
	}
	want := base.SwitchLinks - int(0.2*float64(base.SwitchLinks))
	if r.SwitchLinks != want {
		t.Errorf("links = %d, want %d", r.SwitchLinks, want)
	}
	if r.LargestComponentFrac > 0 && r.APL < base.APL {
		t.Errorf("APL improved under failures: %g -> %g", base.APL, r.APL)
	}
}

func TestSwitchFailureRemovesServers(t *testing.T) {
	f, err := fattree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	// Fail one edge switch: its k/2=2 servers disappear.
	d, err := Degrade(f.Net, Scenario{Switches: []int{f.Edges[0][0]}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.Servers()); got != 14 {
		t.Errorf("%d servers survive, want 14", got)
	}
	r, err := Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Connected {
		t.Error("fat-tree should survive one edge switch failure")
	}
}

func TestDegradeErrors(t *testing.T) {
	f, err := fattree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Degrade(f.Net, Scenario{LinkFraction: 1.0}); err == nil {
		t.Error("fraction 1.0 accepted")
	}
	if _, err := Degrade(f.Net, Scenario{Switches: []int{f.ServerIDs[0]}}); err == nil {
		t.Error("failing a server accepted")
	}
	if _, err := Degrade(f.Net, Scenario{Switches: []int{-1}}); err == nil {
		t.Error("bad switch ID accepted")
	}
}

// TestDegradeProperties: for random fractions and seeds, the degraded
// network never gains links or servers, and the largest-component fraction
// is in (0, 1].
func TestDegradeProperties(t *testing.T) {
	f, err := fattree.New(6)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Analyze(f.Net)
	if err != nil {
		t.Fatal(err)
	}
	err = quick.Check(func(seed uint64, fracRaw uint8) bool {
		frac := float64(fracRaw%60) / 100
		d, err := Degrade(f.Net, Scenario{LinkFraction: frac, Seed: seed})
		if err != nil {
			return false
		}
		r, err := Analyze(d)
		if err != nil {
			return false
		}
		return r.SwitchLinks <= base.SwitchLinks &&
			r.Servers == base.Servers &&
			r.LargestComponentFrac > 0 && r.LargestComponentFrac <= 1
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

// TestFlatTreeSurvivesModerateFailures: in global-random mode, 10% random
// link failures leave the network overwhelmingly connected (random-graph
// robustness, one of the motivations for converting away from Clos).
func TestFlatTreeSurvivesModerateFailures(t *testing.T) {
	ft, err := core.Build(core.Params{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := ft.SetUniformMode(core.ModeGlobalRandom); err != nil {
		t.Fatal(err)
	}
	d, err := Degrade(ft.Net(), Scenario{LinkFraction: 0.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	if r.LargestComponentFrac < 0.95 {
		t.Errorf("largest component only %.2f of servers", r.LargestComponentFrac)
	}
}

// TestAnalyzeTieGoesToLowestComponent splits a network into two halves of
// two servers each with different path lengths: one switch with both
// servers (APL 2) and two linked switches with a server each (APL 3). The
// largest component used to be chosen by ranging over a map, so the
// reported APL flipped between runs; the half holding the lowest server ID
// must win every time. Run with -count=20.
func TestAnalyzeTieGoesToLowestComponent(t *testing.T) {
	b := topo.NewBuilder("halves")
	sw0 := b.AddNode(topo.EdgeSwitch, 0, 0, 4)
	sw1 := b.AddNode(topo.EdgeSwitch, 1, 0, 4)
	sw2 := b.AddNode(topo.EdgeSwitch, 1, 1, 4)
	for i, sw := range []int{sw0, sw0, sw1, sw2} {
		b.AddLink(b.AddNode(topo.Server, 0, i, 1), sw, topo.TagClos)
	}
	b.AddLink(sw1, sw2, topo.TagClos)
	nw := b.Build()
	for i := 0; i < 50; i++ {
		r, err := Analyze(nw)
		if err != nil {
			t.Fatal(err)
		}
		if r.Connected || r.LargestComponentFrac != 0.5 || r.APL != 2 {
			t.Fatalf("run %d: report %+v, want the first half (frac 0.5, APL 2)", i, r)
		}
	}
	if lc, want := LargestComponent(nw), nw.Servers()[:2]; !reflect.DeepEqual(lc, want) {
		t.Errorf("LargestComponent = %v, want the first half %v", lc, want)
	}
}

// TestComponentRulesAgree: Analyze and LargestComponent pick the same
// component of two equally large ones. Servers 3 and 4 sit on the linked
// switches 1 and 2 (APL 3), servers 5 and 6 on switch 0 (APL 2). The second
// component holds node 0, but the first holds the lowest server ID, and
// both functions must name it — otherwise a selfheal row pairs the λ of one
// component with the APL of the other.
func TestComponentRulesAgree(t *testing.T) {
	b := topo.NewBuilder("split")
	sw0 := b.AddNode(topo.EdgeSwitch, 0, 0, 4)
	sw1 := b.AddNode(topo.EdgeSwitch, 1, 0, 4)
	sw2 := b.AddNode(topo.EdgeSwitch, 1, 1, 4)
	b.AddLink(sw1, sw2, topo.TagClos)
	for i, sw := range []int{sw1, sw2, sw0, sw0} {
		b.AddLink(b.AddNode(topo.Server, 0, i, 1), sw, topo.TagClos)
	}
	nw := b.Build()
	r, err := Analyze(nw)
	if err != nil {
		t.Fatal(err)
	}
	if r.Connected || r.LargestComponentFrac != 0.5 || r.APL != 3 {
		t.Errorf("Analyze = %+v, want the component {3,4} (frac 0.5, APL 3)", r)
	}
	if lc, want := LargestComponent(nw), []int{3, 4}; !reflect.DeepEqual(lc, want) {
		t.Errorf("LargestComponent = %v, want %v", lc, want)
	}
}

// TestAnalyzeLoneServerHasZeroAPL: a largest component holding one server
// has no pair to measure, so Report.APL is 0 (the failure tables read
// APL > 0 as "finite"), and Analyze must not hand the path-length kernel,
// which rejects fewer than two servers, an error to return.
func TestAnalyzeLoneServerHasZeroAPL(t *testing.T) {
	split := topo.NewBuilder("split")
	sw0 := split.AddNode(topo.EdgeSwitch, 0, 0, 4)
	sw1 := split.AddNode(topo.EdgeSwitch, 1, 0, 4)
	split.AddLink(split.AddNode(topo.Server, 0, 0, 1), sw0, topo.TagClos)
	split.AddLink(split.AddNode(topo.Server, 1, 1, 1), sw1, topo.TagClos)
	one := topo.NewBuilder("one")
	sw := one.AddNode(topo.EdgeSwitch, 0, 0, 4)
	one.AddLink(one.AddNode(topo.Server, 0, 0, 1), sw, topo.TagClos)
	for _, c := range []struct {
		nw   *topo.Network
		want Report
	}{
		{split.Build(), Report{Servers: 2, LargestComponentFrac: 0.5}},
		{one.Build(), Report{Servers: 1, Connected: true, LargestComponentFrac: 1}},
	} {
		got, err := Analyze(c.nw)
		if err != nil {
			t.Fatalf("%s: %v", c.nw.Name, err)
		}
		if got != c.want {
			t.Errorf("%s: Analyze = %+v, want %+v", c.nw.Name, got, c.want)
		}
	}
}

// TestAnalyzeAllocs guards the cost of one Analyze on a flat-tree in
// global-random mode at k = 8, the size the control-plane self-heal
// episodes score a dozen times per trial. The ceilings are what Analyze
// cost with a path-length loop of its own: measuring through the metrics
// kernel must not cost more.
func TestAnalyzeAllocs(t *testing.T) {
	ft, err := core.Build(core.Params{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := ft.SetUniformMode(core.ModeGlobalRandom); err != nil {
		t.Fatal(err)
	}
	nw := ft.Net()
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := Analyze(nw); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if allocs > 41 || bytes > 16944 {
		t.Errorf("Analyze: %d allocs, %d B per call; want <= 41 allocs, <= 16944 B", allocs, bytes)
	}
	t.Logf("Analyze: %d allocs, %d B per call", allocs, bytes)
}

// TestAnalyzeMatchesPerServerBFS checks Analyze's component choice and APL
// against plain server-to-server BFS on networks degraded until they
// split. Fat-tree k=14 has 98 hosting switches, so the largest component
// spans more than one kernel batch.
func TestAnalyzeMatchesPerServerBFS(t *testing.T) {
	f, err := fattree.New(14)
	if err != nil {
		t.Fatal(err)
	}
	split := 0
	for seed := uint64(1); seed <= 6; seed++ {
		nw, err := Degrade(f.Net, Scenario{LinkFraction: 0.55, SwitchFraction: 0.1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Analyze(nw)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Connected {
			split++
		}
		// Components by reachability, in ascending server order; the first
		// largest one wins.
		g := nw.Graph()
		seen := make([]bool, nw.N())
		var best []int
		for _, a := range nw.Servers() {
			if seen[a] {
				continue
			}
			dist := g.BFS(a)
			var members []int
			for _, sv := range nw.Servers() {
				if dist[sv] >= 0 {
					seen[sv] = true
					members = append(members, sv)
				}
			}
			if len(members) > len(best) {
				best = members
			}
		}
		var sum, pairs float64
		for i, a := range best {
			dist := g.BFS(a)
			for _, sv := range best[i+1:] {
				sum += float64(dist[sv])
				pairs++
			}
		}
		if lc := LargestComponent(nw); !reflect.DeepEqual(lc, best) {
			t.Errorf("seed %d: LargestComponent has %d servers, the scan %d", seed, len(lc), len(best))
		}
		if want := float64(len(best)) / float64(got.Servers); got.LargestComponentFrac != want {
			t.Errorf("seed %d: largest component fraction %g, want %g", seed, got.LargestComponentFrac, want)
		}
		if want := sum / pairs; math.Abs(got.APL-want) > 1e-12 {
			t.Errorf("seed %d: APL %g, want %g", seed, got.APL, want)
		}
	}
	if split == 0 {
		t.Error("no scenario split the network; raise the failure fractions")
	}
}
