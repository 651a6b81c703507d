package mcf

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"flattree/internal/fattree"
	"flattree/internal/graph"
	"flattree/internal/oracle"
	"flattree/internal/topo"
)

// exactLP is the LP optimum of comms from the test-only reference, which
// shares no code with the solver under test.
func exactLP(nw *topo.Network, comms []Commodity) (float64, error) {
	ds := make([]oracle.Demand, len(comms))
	for i, c := range comms {
		ds[i] = oracle.Demand(c)
	}
	return oracle.MaxConcurrentFlow(nw, ds)
}

// lineNetwork builds sw0 - sw1 - ... - sw(n-1) with one server on each end.
func lineNetwork(n int) *topo.Network {
	b := topo.NewBuilder("line")
	sw := make([]int, n)
	for i := range sw {
		sw[i] = b.AddNode(topo.EdgeSwitch, 0, i, 8)
	}
	for i := 0; i+1 < n; i++ {
		b.AddLink(sw[i], sw[i+1], topo.TagClos)
	}
	s0 := b.AddNode(topo.Server, 0, 0, 1)
	s1 := b.AddNode(topo.Server, 0, 1, 1)
	b.AddLink(s0, sw[0], topo.TagClos)
	b.AddLink(s1, sw[n-1], topo.TagClos)
	return b.Build()
}

func TestSingleCommodityLine(t *testing.T) {
	nw := lineNetwork(4)
	servers := nw.Servers()
	comm := []Commodity{{Src: servers[0], Dst: servers[1], Demand: 2}}
	// Bottleneck capacity 1, demand 2 -> lambda = 0.5 exactly.
	exact, err := exactLP(nw, comm)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact-0.5) > 1e-6 {
		t.Errorf("exact = %g, want 0.5", exact)
	}
	res, err := MaxConcurrentFlow(context.Background(), nw, comm, Options{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda > exact+1e-9 {
		t.Errorf("FPTAS lambda %g exceeds optimum %g", res.Lambda, exact)
	}
	if res.Lambda < 0.9*exact {
		t.Errorf("FPTAS lambda %g too far below optimum %g", res.Lambda, exact)
	}
	if res.UpperBound < exact-1e-9 {
		t.Errorf("dual bound %g below optimum %g", res.UpperBound, exact)
	}
}

// ringNetwork: n switches in a cycle, one server each.
func ringNetwork(n int) *topo.Network {
	b := topo.NewBuilder("ring")
	sw := make([]int, n)
	for i := range sw {
		sw[i] = b.AddNode(topo.EdgeSwitch, 0, i, 8)
	}
	for i := 0; i < n; i++ {
		b.AddLink(sw[i], sw[(i+1)%n], topo.TagClos)
	}
	for i := range sw {
		s := b.AddNode(topo.Server, 0, i, 1)
		b.AddLink(s, sw[i], topo.TagClos)
	}
	return b.Build()
}

func TestTwoCommoditiesSharedEdgeExactVsFPTAS(t *testing.T) {
	nw := ringNetwork(6)
	servers := nw.Servers()
	comms := []Commodity{
		{Src: servers[0], Dst: servers[3], Demand: 1},
		{Src: servers[1], Dst: servers[4], Demand: 1},
		{Src: servers[2], Dst: servers[5], Demand: 1},
	}
	exact, err := exactLP(nw, comms)
	if err != nil {
		t.Fatal(err)
	}
	// Three diameter demands on a 6-ring: each can split both ways; total
	// capacity 6, each demand uses 3 hops -> lambda = 6/9 = 2/3.
	if math.Abs(exact-2.0/3) > 1e-6 {
		t.Errorf("exact = %g, want 2/3", exact)
	}
	res, err := MaxConcurrentFlow(context.Background(), nw, comms, Options{Epsilon: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda > exact+1e-9 || res.Lambda < 0.93*exact {
		t.Errorf("FPTAS lambda = %g, exact = %g", res.Lambda, exact)
	}
	if res.UpperBound < exact-1e-9 {
		t.Errorf("dual bound %g below optimum %g", res.UpperBound, exact)
	}
}

// TestFPTASMatchesExactOnRandomInstances cross-validates the two solvers on
// small random graphs with random commodities.
func TestFPTASMatchesExactOnRandomInstances(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		rng := graph.NewRNG(seed)
		n := 8
		deg := make([]int, n)
		for i := range deg {
			deg[i] = 3
		}
		g, err := graph.BuildConnected(deg, rng)
		if err != nil {
			t.Fatal(err)
		}
		b := topo.NewBuilder("rand")
		sw := make([]int, n)
		for i := range sw {
			sw[i] = b.AddNode(topo.EdgeSwitch, 0, i, 8)
		}
		for _, e := range g.Edges() {
			b.AddLink(sw[e.A], sw[e.B], topo.TagRandom)
		}
		nw := b.Build()
		var comms []Commodity
		for c := 0; c < 3; c++ {
			s := rng.Intn(n)
			d := rng.Intn(n)
			if s == d {
				continue
			}
			comms = append(comms, Commodity{Src: sw[s], Dst: sw[d], Demand: float64(1 + rng.Intn(3))})
		}
		if len(comms) == 0 {
			continue
		}
		exact, err := exactLP(nw, comms)
		if err != nil {
			t.Fatal(err)
		}
		res, err := MaxConcurrentFlow(context.Background(), nw, comms, Options{Epsilon: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		if res.Lambda > exact*(1+1e-9) {
			t.Errorf("seed %d: FPTAS %g exceeds exact %g", seed, res.Lambda, exact)
		}
		if res.Lambda < exact*0.94 {
			t.Errorf("seed %d: FPTAS %g more than 6%% below exact %g", seed, res.Lambda, exact)
		}
		if res.UpperBound < exact*(1-1e-9) {
			t.Errorf("seed %d: dual %g below exact %g", seed, res.UpperBound, exact)
		}
	}
}

func TestAggregationMergesAndDropsLocal(t *testing.T) {
	nw := lineNetwork(2)
	servers := nw.Servers()
	// Duplicate commodities on the same switch pair must merge; a
	// same-switch commodity must be dropped (uncapacitated server links).
	comms := []Commodity{
		{Src: servers[0], Dst: servers[1], Demand: 1},
		{Src: servers[0], Dst: servers[1], Demand: 1},
	}
	exact, err := exactLP(nw, comms)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact-0.5) > 1e-6 {
		t.Errorf("merged demand 2 over capacity 1: exact = %g, want 0.5", exact)
	}
	res, err := MaxConcurrentFlow(context.Background(), nw, []Commodity{{Src: servers[0], Dst: servers[0], Demand: 1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Lambda, 1) {
		t.Errorf("same-switch-only workload should be unconstrained, got %g", res.Lambda)
	}
}

// TestOrientationRootsOnACover: aggregate roots every switch pair on a
// vertex cover of the demand graph, and the problem it builds is the same
// for an instance and its transpose. On the 8-ring, switch i carries server
// i; each case lists (src, dst) switch pairs and the roots it must get.
func TestOrientationRootsOnACover(t *testing.T) {
	nw := ringNetwork(8)
	servers := nw.Servers()
	for _, tc := range []struct {
		name  string
		pairs [][2]int
		roots []int32
	}{
		// Broadcast and incast at one hot spot: one root, the exact path.
		{"mixed star", [][2]int{{0, 1}, {2, 0}, {0, 3}, {4, 0}}, []int32{0}},
		// Both directions of one pair merge into one commodity.
		{"pair both ways", [][2]int{{0, 3}, {3, 0}}, []int32{0}},
		// The path 5–2–1–3–4: greedy takes 1 first (degree 2, lowest
		// index), then needs 2 and 3, one root more than the input's
		// sources {2, 3}, which therefore root it.
		{"greedy misses, sources", [][2]int{{2, 1}, {2, 5}, {3, 4}, {3, 1}}, []int32{2, 3}},
		// A 6-cycle: greedy needs 4 roots, sources {2, 5, 6} and
		// destinations {1, 4, 7} 3 each; the destinations' list sorts
		// first, so they root it — in either orientation.
		{"greedy misses, tie", [][2]int{{2, 7}, {6, 4}, {2, 4}, {5, 7}, {5, 1}, {6, 1}}, []int32{1, 4, 7}},
		// A permutation-like matching with a shared hub: the hub 0 covers
		// three pairs, the cover two roots where the input has four sources.
		{"hub", [][2]int{{1, 0}, {0, 2}, {3, 0}, {5, 6}, {6, 7}}, []int32{0, 6}},
	} {
		var comms []Commodity
		for i, p := range tc.pairs {
			comms = append(comms, Commodity{Src: servers[p[0]], Dst: servers[p[1]], Demand: float64(1 + i)})
		}
		var fwd, rev problem
		if err := aggregate(nw, comms, &fwd); err != nil {
			t.Fatal(err)
		}
		if err := aggregate(nw, transposed(comms), &rev); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(fwd.srcs, tc.roots) {
			t.Errorf("%s: roots %v, want %v", tc.name, fwd.srcs, tc.roots)
		}
		if !slices.Equal(fwd.srcs, rev.srcs) || !slices.Equal(fwd.srcOff, rev.srcOff) || !slices.Equal(fwd.comms, rev.comms) {
			t.Errorf("%s: transpose aggregates to roots %v, commodities %v; original %v, %v",
				tc.name, rev.srcs, rev.comms, fwd.srcs, fwd.comms)
		}
		total := 0.0
		for _, c := range fwd.comms {
			total += c.demand
		}
		if want := float64(len(comms) * (len(comms) + 1) / 2); total != want {
			t.Errorf("%s: merged demand %g, want %g", tc.name, total, want)
		}
	}
}

func TestErrors(t *testing.T) {
	nw := lineNetwork(2)
	servers := nw.Servers()
	if _, err := MaxConcurrentFlow(context.Background(), nw, []Commodity{{Src: servers[0], Dst: servers[1], Demand: -1}}, Options{}); err == nil {
		t.Error("negative demand should error")
	}
	if _, err := MaxConcurrentFlow(context.Background(), nw, []Commodity{{Src: servers[0], Dst: servers[1], Demand: 1}}, Options{Epsilon: 0.7}); err == nil {
		t.Error("epsilon >= 0.5 should error")
	}
	// NaN fails every comparison, so a range check that only rejects
	// what compares out of range lets it through into the solve.
	if _, err := MaxConcurrentFlow(context.Background(), nw, []Commodity{{Src: servers[0], Dst: servers[1], Demand: 1}}, Options{Epsilon: math.NaN()}); err == nil || !strings.Contains(err.Error(), "epsilon") {
		t.Errorf("NaN epsilon: got %v, want an epsilon error", err)
	}
	if _, err := MaxConcurrentFlow(context.Background(), nw, []Commodity{{Src: -1, Dst: servers[1], Demand: 1}}, Options{}); err == nil {
		t.Error("bad node should error")
	}
	// Non-finite demands used to reach the solvers: the star path (one hot
	// spot) returned λ = NaN with a nil error, the FPTAS path (two sources)
	// a misleading "disconnected". Both must name the demand.
	line := lineNetwork(3)
	ls := line.Servers()
	for _, d := range []float64{math.NaN(), math.Inf(1)} {
		for _, tc := range []struct {
			name  string
			comms []Commodity
		}{
			{"star", []Commodity{{Src: ls[0], Dst: ls[1], Demand: d}}},
			{"two-source", []Commodity{{Src: ls[0], Dst: ls[1], Demand: d}, {Src: ls[1], Dst: ls[0], Demand: 1}}},
		} {
			res, err := MaxConcurrentFlow(context.Background(), line, tc.comms, Options{})
			if err == nil || !strings.Contains(err.Error(), "demand") {
				t.Errorf("%s instance with demand %g: λ=%g, UpperBound=%g, error %v; want an error naming the demand", tc.name, d, res.Lambda, res.UpperBound, err)
			}
		}
	}
}

// TestFatTreeBisection: all-to-all between two halves of a fat-tree has a
// known structure; sanity check the FPTAS against the exact LP at k=4.
func TestFatTreeK4CrossPodFlow(t *testing.T) {
	ft, err := fattree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	// One commodity per pod pair hot spot.
	comms := []Commodity{
		{Src: ft.ServerIDs[0], Dst: ft.ServerIDs[15], Demand: 1},
		{Src: ft.ServerIDs[4], Dst: ft.ServerIDs[11], Demand: 1},
	}
	exact, err := exactLP(ft.Net, comms)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MaxConcurrentFlow(context.Background(), ft.Net, comms, Options{Epsilon: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda > exact*(1+1e-9) || res.Lambda < exact*0.9 {
		t.Errorf("FPTAS %g vs exact %g", res.Lambda, exact)
	}
	// Each fat-tree(4) edge switch has 2 uplinks; a single hot-spot pair
	// between distinct edge switches should push at least 2 units.
	if exact < 2-1e-6 {
		t.Errorf("exact = %g, want >= 2", exact)
	}
}

func TestDualGap(t *testing.T) {
	r := Result{Lambda: 1, UpperBound: 1.1}
	if math.Abs(r.DualGap()-0.1) > 1e-12 {
		t.Errorf("DualGap = %g", r.DualGap())
	}
	r2 := Result{Lambda: 1, UpperBound: math.Inf(1)}
	if !math.IsInf(r2.DualGap(), 1) {
		t.Error("DualGap should be +Inf without a bound")
	}
}

// TestProbeScaleTinyOPT pins the demand pre-scaling path: one hot pair with
// demand 1000 against a fabric quantizes λ to garbage without the probe
// (OPT ~ 1/250), so λ landing within ε of the exact LP is direct evidence
// lambdaHat normalized the instance. The unit pair from another pod is what
// keeps the instance on the FPTAS: the hot pair alone would be a star.
func TestProbeScaleTinyOPT(t *testing.T) {
	ft, err := fattree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	comms := []Commodity{
		{Src: ft.ServerIDs[0], Dst: ft.ServerIDs[15], Demand: 1000},
		{Src: ft.ServerIDs[4], Dst: ft.ServerIDs[11], Demand: 1},
	}
	exact, err := exactLP(ft.Net, comms)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.05
	res, err := MaxConcurrentFlow(context.Background(), ft.Net, comms, Options{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda > exact*(1+1e-9) || res.Lambda < (1-3*eps)*exact {
		t.Errorf("tiny-OPT lambda %g outside ε contract of exact %g", res.Lambda, exact)
	}
	if res.UpperBound < exact*(1-1e-9) {
		t.Errorf("tiny-OPT dual bound %g below exact %g", res.UpperBound, exact)
	}
}

// TestProbeDisconnectedCommodity: a disconnected commodity is an error on
// both paths — the exact star path (one commodity) and the FPTAS, whose
// probe reports it — also under a passed deadline, which must never turn an
// instance whose optimum is 0 into a positive approximate λ.
func TestProbeDisconnectedCommodity(t *testing.T) {
	b := topo.NewBuilder("islands")
	a0 := b.AddNode(topo.EdgeSwitch, 0, 0, 4)
	a1 := b.AddNode(topo.EdgeSwitch, 0, 1, 4)
	b.AddLink(a0, a1, topo.TagClos)
	c0 := b.AddNode(topo.EdgeSwitch, 1, 0, 4)
	c1 := b.AddNode(topo.EdgeSwitch, 1, 1, 4)
	b.AddLink(c0, c1, topo.TagClos)
	sa0 := b.AddNode(topo.Server, 0, 0, 1)
	sa1 := b.AddNode(topo.Server, 0, 1, 1)
	sc := b.AddNode(topo.Server, 1, 0, 1)
	b.AddLink(sa0, a0, topo.TagClos)
	b.AddLink(sa1, a1, topo.TagClos)
	b.AddLink(sc, c0, topo.TagClos)
	nw := b.Build()
	star := []Commodity{{Src: sa0, Dst: sc, Demand: 1}}
	// A triangle of switch pairs: no one switch covers it, so the FPTAS
	// runs and its probe meets the island.
	multi := []Commodity{{Src: sa0, Dst: sa1, Demand: 1}, {Src: sa1, Dst: sc, Demand: 1}, {Src: sc, Dst: sa0, Demand: 1}}
	for _, ctx := range []context.Context{context.Background(), pastDeadline{context.Background()}} {
		for _, comms := range [][]Commodity{star, multi} {
			res, err := MaxConcurrentFlow(ctx, nw, comms, Options{})
			if err == nil || !strings.Contains(err.Error(), "disconnected") {
				t.Errorf("%d commodities, deadline passed %t: λ %g, err %v; want a disconnected-commodity error",
					len(comms), ctx != context.Background(), res.Lambda, err)
			}
		}
	}
}

// withoutLink rebuilds nw minus the link with the given ID; node IDs are
// unchanged, as after a link failure.
func withoutLink(nw *topo.Network, id int) *topo.Network {
	b := topo.NewBuilder(nw.Name)
	for _, n := range nw.Nodes {
		b.AddNode(n.Kind, n.Pod, n.Index, n.Ports)
	}
	for _, l := range nw.Links {
		if l.ID != id {
			b.AddLink(l.A, l.B, l.Tag)
		}
	}
	return b.Build()
}

// TestSolveIsHistoryFree: a solve is a function of its own instance. One
// Solver is walked through every kind of neighbour a driver can hand it — an
// FPTAS instance after a star, the next k after a smaller one, a link-failed
// variant after its parent, a coarser ε after a finer one, a star after an
// FPTAS instance — and each Result must equal, field for field and bit for
// bit, a solve of the same instance on scratch nothing has touched.
func TestSolveIsHistoryFree(t *testing.T) {
	mirrored := func(k int) (*topo.Network, []Commodity) {
		ft, err := fattree.New(k)
		if err != nil {
			t.Fatal(err)
		}
		srv := ft.ServerIDs
		var comms []Commodity
		for i := 0; i < len(srv)/2; i++ {
			comms = append(comms, Commodity{Src: srv[i], Dst: srv[len(srv)-1-i], Demand: 1})
		}
		return ft.Net, comms
	}
	k4, comms4 := mirrored(4)
	k6, comms6 := mirrored(6)
	var aggUplink int // an edge-agg link of k6: its loss moves λ
	for _, l := range k6.Links {
		if k6.IsSwitchLink(l) {
			aggUplink = l.ID
			break
		}
	}
	failed := withoutLink(k6, aggUplink)
	steps := []struct {
		name  string
		nw    *topo.Network
		comms []Commodity
		eps   float64
	}{
		{"star k=4", k4, comms4[:1], 0.1},
		{"FPTAS after star", k4, comms4, 0.1},
		{"k=6 after k=4", k6, comms6, 0.1},
		{"link failed after parent", failed, comms6, 0.1},
		{"eps 0.2 after 0.1", failed, comms6, 0.2},
		{"star after FPTAS", k6, comms6[:1], 0.2},
	}
	s := GetSolver()
	defer s.Release()
	seen := map[Result]string{}
	for _, st := range steps {
		got, err := s.Solve(context.Background(), st.nw, st.comms, Options{Epsilon: st.eps})
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		want, err := new(solveState).solve(context.Background(), st.nw, st.comms, Options{Epsilon: st.eps})
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if got != want {
			t.Errorf("%s: on the used Solver %+v, on fresh scratch %+v", st.name, got, want)
		}
		// The steps are different instances: equal results would mean the
		// walk exercises nothing.
		if prev, dup := seen[got]; dup {
			t.Errorf("%s: same Result as %q, the step is vacuous", st.name, prev)
		}
		seen[got] = st.name
	}
}
