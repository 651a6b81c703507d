package mcf

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"flattree/internal/fattree"
	"flattree/internal/topo"
)

// chordRing builds an n-switch ring with chords (i, i+n/2) for even i, one
// server per switch, optionally omitting one switch-switch link by index.
// Every variant adds its nodes in the identical order, so node ids are
// stable across variants — the same property pure link failures have on
// real networks, and the condition under which a Solver may warm-start.
func chordRing(n, omitLink int) *topo.Network {
	b := topo.NewBuilder("chordring")
	sw := make([]int, n)
	for i := range sw {
		sw[i] = b.AddNode(topo.EdgeSwitch, 0, i, 8)
	}
	link := 0
	add := func(a, c int) {
		if link != omitLink {
			b.AddLink(a, c, topo.TagRandom)
		}
		link++
	}
	for i := 0; i < n; i++ {
		add(sw[i], sw[(i+1)%n])
	}
	for i := 0; i < n/2; i += 2 {
		add(sw[i], sw[i+n/2])
	}
	for i := range sw {
		s := b.AddNode(topo.Server, 0, i, 1)
		b.AddLink(s, sw[i], topo.TagClos)
	}
	return b.Build()
}

// TestSolverWarmMatchesColdWithinEps chains a Solver through a
// failure→repair sequence (full ring+chords, minus a chord, minus a ring
// link, full again) and pins every warm-started solve against both the
// exact LP and a cold solve: λ must stay feasible, within the ε contract of
// optimal, and the dual bound must remain a true certificate.
func TestSolverWarmMatchesColdWithinEps(t *testing.T) {
	const n = 8
	const eps = 0.05
	variants := []int{-1, n, 2, -1} // link index to omit; -1 = intact
	s := NewSolver()
	comms := make([]Commodity, 0, n/2)
	for i := 0; i < n/2; i++ {
		comms = append(comms, Commodity{Src: n + i, Dst: n + i + n/2, Demand: 1})
	}
	for step, omit := range variants {
		nw := chordRing(n, omit)
		servers := nw.Servers()
		cs := make([]Commodity, len(comms))
		for i, c := range comms {
			cs[i] = Commodity{Src: servers[c.Src-n], Dst: servers[c.Dst-n], Demand: c.Demand}
		}
		exact, err := MaxConcurrentFlowExact(nw, cs)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := MaxConcurrentFlow(context.Background(), nw, cs, Options{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := s.Solve(context.Background(), nw, cs, Options{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		if want := step > 0; warm.WarmStarted != want {
			t.Fatalf("step %d: WarmStarted = %v, want %v", step, warm.WarmStarted, want)
		}
		if warm.Lambda > exact*(1+1e-9) {
			t.Errorf("step %d: warm lambda %g exceeds exact %g — infeasible", step, warm.Lambda, exact)
		}
		if warm.Lambda < (1-3*eps)*exact {
			t.Errorf("step %d: warm lambda %g breaks the ε contract vs exact %g", step, warm.Lambda, exact)
		}
		if warm.UpperBound < exact*(1-1e-9) {
			t.Errorf("step %d: warm dual bound %g below exact %g — certificate broken", step, warm.UpperBound, exact)
		}
		// Warm and cold agree within the combined ε tolerance (both are
		// (1±O(ε)) of the same optimum), and DualGap stays truthful on both.
		if rel := math.Abs(warm.Lambda-cold.Lambda) / cold.Lambda; rel > 3*eps {
			t.Errorf("step %d: warm lambda %g vs cold %g differ by %g > 3ε", step, warm.Lambda, cold.Lambda, rel)
		}
		if !warm.Approximate && warm.DualGap() > 3*eps {
			t.Errorf("step %d: converged warm solve has DualGap %g > 3ε", step, warm.DualGap())
		}
	}
}

// TestSolverWarmStartGate checks the gate's modes: an identical re-solve
// warm-starts with λ transferred directly; a different-size instance of the
// same family warm-starts through the relaxed gate (its switch coordinates
// and commodity sources overlap); an ε change runs cold, because δ and the
// feasibility scale depend on it. The per-chain hit/miss accounting rides
// along. Two sources and two destinations keep every instance off the exact
// star path, which has no warm state to gate.
func TestSolverWarmStartGate(t *testing.T) {
	s := NewSolver()
	solveOn := func(nw *topo.Network, eps float64) Result {
		t.Helper()
		servers := nw.Servers()
		res, err := s.Solve(context.Background(), nw, []Commodity{
			{Src: servers[0], Dst: servers[1], Demand: 1},
			{Src: servers[2], Dst: servers[3], Demand: 1},
		}, Options{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := solveOn(ringNetwork(6), 0.1); res.WarmStarted || res.WarmReject != WarmRejectFirstSolve {
		t.Errorf("first solve: WarmStarted %v, WarmReject %q; want cold, %q",
			res.WarmStarted, res.WarmReject, WarmRejectFirstSolve)
	}
	if res := solveOn(ringNetwork(6), 0.1); !res.WarmStarted {
		t.Error("identical re-solve did not warm-start")
	}
	// A larger instance of the same family keeps every captured switch
	// coordinate and the same commodity sources, so the relaxed gate
	// warm-starts it — the cross-k path fig7/fig8 columns ride.
	if res := solveOn(ringNetwork(8), 0.1); !res.WarmStarted {
		t.Error("adjacent-size instance did not warm-start through the relaxed gate")
	}
	// Mismatched ε must run cold regardless of overlap.
	res := solveOn(ringNetwork(8), 0.2)
	if res.WarmStarted || res.WarmReject != WarmRejectEpsilon {
		t.Errorf("ε change: WarmStarted %v, WarmReject %q; want cold, %q",
			res.WarmStarted, res.WarmReject, WarmRejectEpsilon)
	}
	if res.WarmHits != 2 || res.WarmMisses != 2 {
		t.Errorf("chain counters = %d/%d hits/misses, want 2/2", res.WarmHits, res.WarmMisses)
	}
	s.Reset()
	if res := solveOn(ringNetwork(8), 0.2); res.WarmStarted || res.WarmHits != 0 || res.WarmMisses != 1 {
		t.Errorf("post-Reset solve: WarmStarted %v, counters %d/%d; want cold, 0/1",
			res.WarmStarted, res.WarmHits, res.WarmMisses)
	}
}

// TestSolverGateCommodityDeltas pins the commodity half of the relaxed
// gate: changed demands and re-drawn destinations warm-start through the
// demand-delta rescale (their source coordinates overlap fully), while a
// demand set on disjoint switches — a different traffic zone on the same
// fabric, whose λ can be orders of magnitude off this instance's OPT —
// runs cold, and an identical re-solve after the mismatch warm-starts. Every
// instance has two sources and two destinations, so none is a star.
func TestSolverGateCommodityDeltas(t *testing.T) {
	s := NewSolver()
	nw := ringNetwork(6)
	servers := nw.Servers()
	solve := func(cs []Commodity) Result {
		t.Helper()
		res, err := s.Solve(context.Background(), nw, cs, Options{Epsilon: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pair := func(s1, d1, s2, d2 int, demand float64) []Commodity {
		return []Commodity{
			{Src: servers[s1], Dst: servers[d1], Demand: demand},
			{Src: servers[s2], Dst: servers[d2], Demand: demand},
		}
	}
	if res := solve(pair(0, 2, 3, 5, 1)); res.WarmStarted {
		t.Error("first solve claims WarmStarted")
	}
	if res := solve(pair(0, 2, 3, 5, 2)); !res.WarmStarted {
		t.Error("changed demands did not warm-start — the λ rescale should absorb them")
	}
	if res := solve(pair(0, 4, 3, 1, 1)); !res.WarmStarted {
		t.Error("re-drawn destinations from the same sources did not warm-start")
	}
	// Switches 2 and 5 are the only ones the captured commodities never touch.
	if res := solve(pair(2, 5, 5, 2, 1)); res.WarmStarted || res.WarmReject != WarmRejectOverlap {
		t.Errorf("disjoint zone: WarmStarted %v, WarmReject %q; want cold, %q",
			res.WarmStarted, res.WarmReject, WarmRejectOverlap)
	}
	if res := solve(pair(2, 5, 5, 2, 1)); !res.WarmStarted {
		t.Error("identical re-solve after a mismatch did not warm-start")
	}
}

// TestSolverCrossKWarmChain chains one Solver down a fat-tree k column the
// way fig7/fig8 trials do and pins the cross-k seeding path: the k=6 solve
// warm-starts from the k=4 capture (edges map by coordinate), stays within
// the combined ε tolerance of a cold solve, and keeps a truthful dual
// certificate.
func TestSolverCrossKWarmChain(t *testing.T) {
	const eps = 0.1
	s := NewSolver()
	for step, k := range []int{4, 6} {
		ft, err := fattree.New(k)
		if err != nil {
			t.Fatal(err)
		}
		srvs := ft.ServerIDs
		var comms []Commodity
		for i := 0; i < len(srvs)/2; i++ {
			comms = append(comms, Commodity{Src: srvs[i], Dst: srvs[len(srvs)-1-i], Demand: 1})
		}
		warm, err := s.Solve(context.Background(), ft.Net, comms, Options{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		if want := step > 0; warm.WarmStarted != want {
			t.Fatalf("k=%d: WarmStarted = %v, want %v (reject %q)", k, warm.WarmStarted, want, warm.WarmReject)
		}
		cold, err := MaxConcurrentFlow(context.Background(), ft.Net, comms, Options{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(warm.Lambda-cold.Lambda) / cold.Lambda; rel > 3*eps {
			t.Errorf("k=%d: warm λ %g vs cold %g differ by %g > 3ε", k, warm.Lambda, cold.Lambda, rel)
		}
		if warm.Lambda > warm.UpperBound*(1+1e-9) {
			t.Errorf("k=%d: warm λ %g exceeds its own dual bound %g", k, warm.Lambda, warm.UpperBound)
		}
		if !warm.Approximate && warm.DualGap() > 3*eps {
			t.Errorf("k=%d: converged warm solve has DualGap %g > 3ε", k, warm.DualGap())
		}
	}
}

// TestSolverColdRetryOnOvershoot pins the safety net under the relaxed
// gate: a transferred normalizer that overshoots OPT by orders of magnitude
// makes the FPTAS hit its stop condition inside phase 1 with a ruinously
// quantized λ; solve must detect the shape (converged with zero completed
// phases) and redo the solve cold. The sabotaged λ stands in for the
// pathological instance pair the rescale heuristic cannot anticipate.
func TestSolverColdRetryOnOvershoot(t *testing.T) {
	s := NewSolver()
	nw := ringNetwork(6)
	servers := nw.Servers()
	cs := []Commodity{
		{Src: servers[0], Dst: servers[3], Demand: 1},
		{Src: servers[1], Dst: servers[4], Demand: 1},
	}
	if _, err := s.Solve(context.Background(), nw, cs, Options{Epsilon: 0.1}); err != nil {
		t.Fatal(err)
	}
	exact, err := MaxConcurrentFlowExact(nw, cs)
	if err != nil {
		t.Fatal(err)
	}
	s.warm.lambda *= 1e9 // sabotage: normalizer now overshoots OPT by 9 orders
	res, err := s.Solve(context.Background(), nw, cs, Options{Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmStarted || res.WarmReject != WarmRejectColdRetry {
		t.Errorf("overshot solve: WarmStarted %v, WarmReject %q; want cold retry (%q)",
			res.WarmStarted, res.WarmReject, WarmRejectColdRetry)
	}
	if res.Lambda > exact*(1+1e-9) || res.Lambda < (1-3*0.1)*exact {
		t.Errorf("retried λ %g outside ε contract of exact %g", res.Lambda, exact)
	}
}

// TestWarmStatsCounters pins the process-wide observability counters the
// flatsim sweep summary reads: Solver solves land in Hits or Misses with a
// reason, and MaxConcurrentFlow (no warm state in play) counts nowhere.
func TestWarmStatsCounters(t *testing.T) {
	nw := ringNetwork(6)
	servers := nw.Servers()
	cs := []Commodity{
		{Src: servers[0], Dst: servers[3], Demand: 1},
		{Src: servers[1], Dst: servers[4], Demand: 1},
	}
	before := ReadWarmStats()
	s := NewSolver()
	for i := 0; i < 3; i++ {
		if _, err := s.Solve(context.Background(), nw, cs, Options{Epsilon: 0.1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := MaxConcurrentFlow(context.Background(), nw, cs, Options{Epsilon: 0.1}); err != nil {
		t.Fatal(err)
	}
	after := ReadWarmStats()
	if d := after.Hits - before.Hits; d != 2 {
		t.Errorf("Hits grew by %d, want 2", d)
	}
	if d := after.Misses - before.Misses; d != 1 {
		t.Errorf("Misses grew by %d, want 1", d)
	}
	if d := after.FirstSolve - before.FirstSolve; d != 1 {
		t.Errorf("FirstSolve grew by %d, want 1", d)
	}
}

// TestSolverPoolResets pins the pooling contract: a Solver from GetSolver
// never carries a previous work item's warm state, so pooled reuse cannot
// make results depend on goroutine scheduling.
func TestSolverPoolResets(t *testing.T) {
	nw := ringNetwork(6)
	servers := nw.Servers()
	cs := []Commodity{
		{Src: servers[0], Dst: servers[3], Demand: 1},
		{Src: servers[1], Dst: servers[4], Demand: 1},
	}
	s := GetSolver()
	if _, err := s.Solve(context.Background(), nw, cs, Options{Epsilon: 0.1}); err != nil {
		t.Fatal(err)
	}
	s.Release()
	s2 := GetSolver()
	defer s2.Release()
	res, err := s2.Solve(context.Background(), nw, cs, Options{Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmStarted {
		t.Error("pooled Solver leaked warm state across Get/Release")
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
	exact, err := MaxConcurrentFlowExact(ft.Net, comms)
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

// TestProbeDisconnectedCommodity: the probe must skip a disconnected
// commodity without crashing, and the main run must surface it as an error.
func TestProbeDisconnectedCommodity(t *testing.T) {
	b := topo.NewBuilder("islands")
	a0 := b.AddNode(topo.EdgeSwitch, 0, 0, 4)
	a1 := b.AddNode(topo.EdgeSwitch, 0, 1, 4)
	b.AddLink(a0, a1, topo.TagClos)
	c0 := b.AddNode(topo.EdgeSwitch, 1, 0, 4)
	c1 := b.AddNode(topo.EdgeSwitch, 1, 1, 4)
	b.AddLink(c0, c1, topo.TagClos)
	sa := b.AddNode(topo.Server, 0, 0, 1)
	sc := b.AddNode(topo.Server, 1, 0, 1)
	b.AddLink(sa, a0, topo.TagClos)
	b.AddLink(sc, c0, topo.TagClos)
	nw := b.Build()
	_, err := MaxConcurrentFlow(context.Background(), nw,
		[]Commodity{{Src: sa, Dst: sc, Demand: 1}}, Options{})
	if err == nil || !strings.Contains(err.Error(), "disconnected") {
		t.Fatalf("err = %v, want disconnected-commodity error", err)
	}
}

// TestPhasesCountsCompletedOnly is the regression test for the
// over-reporting bug: a solve whose TimeBudget expires before the first
// phase completes must report Phases == 0 (and only the probe's Dijkstra
// passes), and a MaxPhases-limited solve reports exactly the phases it
// completed.
func TestPhasesCountsCompletedOnly(t *testing.T) {
	ft, err := fattree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	var comms []Commodity
	for i := 0; i < 8; i++ {
		comms = append(comms, Commodity{Src: ft.ServerIDs[i], Dst: ft.ServerIDs[15-i], Demand: 1})
	}
	// The 1ns budget is already spent when the first iteration checks the
	// deadline (the probe alone takes far longer), so zero phases complete.
	res, err := MaxConcurrentFlow(context.Background(), ft.Net, comms,
		Options{Epsilon: 0.05, TimeBudget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases != 0 {
		t.Errorf("budget-exhausted solve reports %d phases, want 0", res.Phases)
	}
	if !res.Approximate {
		t.Error("budget-exhausted solve not flagged Approximate")
	}
	// Exactly one probe pass per distinct source switch ran — this pins the
	// probe-accounting fix too (it used to report 0).
	srcSwitches := map[int]bool{}
	for _, c := range comms {
		srcSwitches[ft.Net.HostSwitch(c.Src)] = true
	}
	if res.Dijkstras != len(srcSwitches) {
		t.Errorf("Dijkstras = %d, want %d probe passes", res.Dijkstras, len(srcSwitches))
	}

	full, err := MaxConcurrentFlow(context.Background(), ft.Net, comms, Options{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if full.Phases < 2 {
		t.Skipf("converged in %d phases; no room to truncate", full.Phases)
	}
	cut, err := MaxConcurrentFlow(context.Background(), ft.Net, comms,
		Options{Epsilon: 0.05, MaxPhases: full.Phases / 2})
	if err != nil {
		t.Fatal(err)
	}
	if cut.Phases != full.Phases/2 {
		t.Errorf("MaxPhases-limited solve reports %d phases, want %d", cut.Phases, full.Phases/2)
	}
	if !cut.Approximate {
		t.Error("MaxPhases-limited solve not flagged Approximate")
	}
}
