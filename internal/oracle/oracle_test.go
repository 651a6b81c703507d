package oracle

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"flattree/internal/core"
	"flattree/internal/fattree"
	"flattree/internal/graph"
	"flattree/internal/topo"
)

// k4 builds the k=4 flat-tree in a uniform mode.
func k4(tb testing.TB, mode core.Mode) (*topo.Network, []int) {
	tb.Helper()
	ft, err := core.BuildIn(core.Params{K: 4}, mode)
	if err != nil {
		tb.Fatal(err)
	}
	return ft.Net(), ft.ServerIDs
}

// randomDemands draws n server-to-server demands in [0.5, 2.5) between
// distinct servers.
func randomDemands(rng *graph.RNG, servers []int, n int) []Demand {
	ds := make([]Demand, 0, n)
	for len(ds) < n {
		s, t := servers[rng.Intn(len(servers))], servers[rng.Intn(len(servers))]
		if s != t {
			ds = append(ds, Demand{Src: s, Dst: t, Demand: 0.5 + 2*rng.Float64()})
		}
	}
	return ds
}

func solve(tb testing.TB, label string, nw *topo.Network, ds []Demand) float64 {
	tb.Helper()
	lambda, err := MaxConcurrentFlow(nw, ds)
	if err != nil {
		tb.Fatalf("%s: %v", label, err)
	}
	return lambda
}

// TestAggregationIsMetamorphic pins the oracle's own aggregation on k=4
// flat-tree instances in every uniform mode: λ is a function of the demand
// multiset per switch pair. Permuting the demands leaves it bit-identical,
// splitting one demand into two halves leaves it to rounding, and spelling
// every server by its host switch leaves it bit-identical.
func TestAggregationIsMetamorphic(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeClos, core.ModeGlobalRandom, core.ModeLocalRandom} {
		nw, servers := k4(t, mode)
		for seed := uint64(1); seed <= 3; seed++ {
			rng := graph.NewRNG(seed*31 + uint64(mode))
			label := fmt.Sprintf("%v seed=%d", mode, seed)
			ds := randomDemands(rng, servers, 6)
			want := solve(t, label, nw, ds)
			if !(want > 0) || math.IsInf(want, 1) {
				t.Fatalf("%s: λ = %g, want positive and finite", label, want)
			}

			perm := slices.Clone(ds)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			if got := solve(t, label+" permuted", nw, perm); got != want {
				t.Errorf("%s: permuted λ %.17g, want %.17g", label, got, want)
			}

			split := slices.Clone(ds)
			i := rng.Intn(len(split))
			split[i].Demand /= 2
			split = append(split, split[i])
			if got := solve(t, label+" split", nw, split); math.Abs(got-want) > 1e-9*want {
				t.Errorf("%s: λ with demand %d split in halves %.17g, want %.17g", label, i, got, want)
			}

			hosts := slices.Clone(ds)
			for j := range hosts {
				hosts[j].Src, hosts[j].Dst = nw.HostSwitch(hosts[j].Src), nw.HostSwitch(hosts[j].Dst)
			}
			if got := solve(t, label+" host switches", nw, hosts); got != want {
				t.Errorf("%s: host-switch λ %.17g, want the server-to-server %.17g", label, got, want)
			}
		}
	}
}

// TestSameSwitchDemandsAreDropped: a demand whose ends share a host switch
// loads no link, so adding one leaves λ as it was, and an instance of only
// such demands is unconstrained.
func TestSameSwitchDemandsAreDropped(t *testing.T) {
	f, err := fattree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	s := f.ServerIDs
	if f.Net.HostSwitch(s[0]) != f.Net.HostSwitch(s[1]) {
		t.Fatal("servers 0 and 1 should share an edge switch")
	}
	local := Demand{Src: s[0], Dst: s[1], Demand: 5}
	ds := []Demand{{Src: s[0], Dst: s[15], Demand: 1}}
	want := solve(t, "one demand", f.Net, ds)
	if got := solve(t, "with a local demand", f.Net, append(ds, local)); got != want {
		t.Errorf("adding a same-switch demand moved λ from %g to %g", want, got)
	}
	if got := solve(t, "local only", f.Net, []Demand{local}); !math.IsInf(got, 1) {
		t.Errorf("same-switch-only λ = %g, want +Inf", got)
	}
}

// TestRejectsBadDemands: non-positive, infinite and NaN demands and
// out-of-range nodes are errors, not λ values.
func TestRejectsBadDemands(t *testing.T) {
	f, err := fattree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	s := f.ServerIDs
	for _, d := range []Demand{
		{Src: s[0], Dst: s[15], Demand: 0},
		{Src: s[0], Dst: s[15], Demand: -1},
		{Src: s[0], Dst: s[15], Demand: math.Inf(1)},
		{Src: s[0], Dst: s[15], Demand: math.NaN()},
		{Src: -1, Dst: s[15], Demand: 1},
		{Src: s[0], Dst: f.Net.N(), Demand: 1},
	} {
		if _, err := MaxConcurrentFlow(f.Net, []Demand{d}); err == nil {
			t.Errorf("demand %+v accepted", d)
		}
	}
}

// BenchmarkMaxConcurrentFlow measures the simplex reference on a tiny
// fat-tree instance.
func BenchmarkMaxConcurrentFlow(b *testing.B) {
	f, err := fattree.New(4)
	if err != nil {
		b.Fatal(err)
	}
	ds := []Demand{
		{Src: f.ServerIDs[0], Dst: f.ServerIDs[15], Demand: 1},
		{Src: f.ServerIDs[4], Dst: f.ServerIDs[11], Demand: 1},
	}
	b.ResetTimer()
	for range b.N {
		if _, err := MaxConcurrentFlow(f.Net, ds); err != nil {
			b.Fatal(err)
		}
	}
}
