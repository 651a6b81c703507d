package mcf

import (
	"context"
	"fmt"
	"math"
	"testing"

	"flattree/internal/core"
	"flattree/internal/fattree"
	"flattree/internal/graph"
	"flattree/internal/topo"
)

// k4Modes are the uniform flat-tree modes the generated instances cover.
var k4Modes = []core.Mode{core.ModeClos, core.ModeGlobalRandom, core.ModeLocalRandom}

// k4FlatTree builds the 16-server k=4 flat-tree in one uniform mode: 20
// switches and 32 switch links, small enough for the exact LP at a handful
// of commodities.
func k4FlatTree(tb testing.TB, mode core.Mode) (*topo.Network, []int) {
	tb.Helper()
	ft, err := core.Build(core.Params{K: 4})
	if err != nil {
		tb.Fatal(err)
	}
	if err := ft.SetUniformMode(mode); err != nil {
		tb.Fatal(err)
	}
	return ft.Net(), ft.ServerIDs
}

// scaled returns comms with every demand multiplied by c.
func scaled(comms []Commodity, c float64) []Commodity {
	out := make([]Commodity, len(comms))
	for i, cm := range comms {
		out[i] = Commodity{Src: cm.Src, Dst: cm.Dst, Demand: cm.Demand * c}
	}
	return out
}

// checkCertificate asserts the solver's contract against the exact LP
// optimum: a converged solve brackets it, λ ≤ λ_LP ≤ UpperBound, and sits
// within the ε guarantee, λ ≥ (1−3ε)·λ_LP. An in-flight renormalization
// that ever raised the demands past OPT would break the last inequality
// (phases run at normalized OPT < 1 quantize λ low); one that mis-tracked
// its units would break the bracket.
func checkCertificate(tb testing.TB, label string, res Result, exact, eps float64) {
	tb.Helper()
	if res.Approximate {
		tb.Errorf("%s: unbudgeted solve flagged Approximate", label)
	}
	if res.Lambda > exact*(1+1e-9) {
		tb.Errorf("%s: λ %g exceeds the LP optimum %g — infeasible", label, res.Lambda, exact)
	}
	if res.UpperBound < exact*(1-1e-9) {
		tb.Errorf("%s: UpperBound %g below the LP optimum %g — certificate broken", label, res.UpperBound, exact)
	}
	if res.Lambda < (1-3*eps)*exact {
		tb.Errorf("%s: λ %g is %.3f of the LP optimum %g, below 1−3ε", label, res.Lambda, res.Lambda/exact, exact)
	}
}

// isStar reports whether the solver takes the exact path for comms: the
// aggregated instance has one distinct source switch or one distinct
// destination switch.
func isStar(tb testing.TB, nw *topo.Network, comms []Commodity) bool {
	tb.Helper()
	st := &solveState{}
	if err := aggregate(nw, comms, &st.pr); err != nil {
		tb.Fatal(err)
	}
	return st.pr.numComm > 0 && st.stageStar()
}

// checkExact asserts what the exact path promises of a star instance: the LP
// optimum itself with a closed certificate and no FPTAS work.
func checkExact(tb testing.TB, label string, res Result, exact float64) {
	tb.Helper()
	if res.Approximate {
		tb.Errorf("%s: star solve flagged Approximate", label)
	}
	if res.Phases != 0 || res.Dijkstras != 0 {
		tb.Errorf("%s: star solve counts %d phases, %d Dijkstras", label, res.Phases, res.Dijkstras)
	}
	if math.Abs(res.Lambda-exact) > 1e-9*exact {
		tb.Errorf("%s: star λ %.12g, LP optimum %.12g", label, res.Lambda, exact)
	}
	if gap := res.DualGap(); !(gap >= 0 && gap < 1e-9) {
		tb.Errorf("%s: star DualGap %g (λ %g, UpperBound %g), want within [0, 1e-9)", label, gap, res.Lambda, res.UpperBound)
	}
}

// checkChain solves comms on fresh scratch, then on that same scratch the
// tripled-demand instance and comms again. The first two are held to their
// own LP optimum — checkCertificate, or checkExact when the instance is a
// star — and the re-solve on used scratch must equal the fresh one bit for
// bit: a solve is a function of its instance, not of what ran before it.
func checkChain(tb testing.TB, label string, nw *topo.Network, comms []Commodity, eps float64) {
	tb.Helper()
	exact, err := MaxConcurrentFlowExact(nw, comms)
	if err != nil {
		tb.Fatalf("%s: exact LP: %v", label, err)
	}
	if math.IsInf(exact, 1) {
		return // every commodity was switch-local
	}
	star := isStar(tb, nw, comms)
	st := new(solveState)
	solve := func(name string, comms []Commodity, exact float64) Result {
		res, err := st.solve(context.Background(), nw, comms, Options{Epsilon: eps})
		if err != nil {
			tb.Fatalf("%s %s: %v", label, name, err)
		}
		if star {
			checkExact(tb, label+" "+name, res, exact)
		} else {
			checkCertificate(tb, label+" "+name, res, exact, eps)
		}
		return res
	}
	fresh := solve("fresh", comms, exact)
	solve("tripled", scaled(comms, 3), exact/3)
	if again := solve("again", comms, exact); again != fresh {
		tb.Errorf("%s: re-solve on used scratch = %+v, fresh solve = %+v", label, again, fresh)
	}
}

// TestRatchetNeverOvershootsOPT is the generated differential check of the
// renormalizing solver against the exact LP: random commodity sets on the
// k=4 flat-tree in every mode, demands scaled across six orders of
// magnitude, each through checkChain.
// Commodities are drawn until at least two source and two destination
// switches are in play, so every instance takes the FPTAS; TestStarMatchesLP
// is the same check for the ones that do not.
func TestRatchetNeverOvershootsOPT(t *testing.T) {
	const eps = 0.1
	for _, mode := range k4Modes {
		nw, servers := k4FlatTree(t, mode)
		for seed := uint64(0); seed < 4; seed++ {
			rng := graph.NewRNG(seed*31 + uint64(mode))
			var comms []Commodity
			for len(comms) < 2+int(seed%3) || isStar(t, nw, comms) {
				s, d := rng.Intn(len(servers)), rng.Intn(len(servers))
				if s != d {
					comms = append(comms, Commodity{Src: servers[s], Dst: servers[d], Demand: float64(1 + rng.Intn(4))})
				}
			}
			for _, c := range []float64{1e-3, 1, 1e3} {
				checkChain(t, fmt.Sprintf("%v seed=%d scale=%g", mode, seed, c), nw, scaled(comms, c), eps)
			}
		}
	}
}

// allToAllColumn is one k of a fig8-shaped column: fat-tree(k) with its
// servers dealt round-robin into clusters of (up to) 20, one unit commodity
// per unordered pair inside each cluster. Dealing round-robin spreads every
// cluster over the pods, which is what throws the hop-count probe furthest
// off.
func allToAllColumn(tb testing.TB, k int) (*topo.Network, []Commodity) {
	tb.Helper()
	ft, err := fattree.New(k)
	if err != nil {
		tb.Fatal(err)
	}
	srv := ft.ServerIDs
	clusters := (len(srv) + 19) / 20
	var comms []Commodity
	for c := 0; c < clusters; c++ {
		for i := c; i < len(srv); i += clusters {
			for j := i + clusters; j < len(srv); j += clusters {
				comms = append(comms, Commodity{Src: srv[i], Dst: srv[j], Demand: 1})
			}
		}
	}
	return ft.Net, comms
}

// solveAllToAllChain solves the k=4→6→8 all-to-all column on one solve
// state, returning each solve's result beside its feasibility scale (the
// phase count at normalized OPT = 1).
func solveAllToAllChain(tb testing.TB, eps float64) (scales []float64, out []Result) {
	tb.Helper()
	st := new(solveState)
	for _, k := range []int{4, 6, 8} {
		nw, comms := allToAllColumn(tb, k)
		res, err := st.solve(context.Background(), nw, comms, Options{Epsilon: eps})
		if err != nil {
			tb.Fatalf("k=%d: %v", k, err)
		}
		_, scale := gkConstants(eps, st.pr.g.M())
		scales, out = append(scales, scale), append(out, res)
	}
	return scales, out
}

// TestRatchetBoundsPhases pins what the ratchet is for. A Garg-Könemann
// solve takes (normalized OPT)·scale phases; before the ratchet the probe
// left the k=4 solve of this column at 3.03·scale. With it the normalizer is pulled up to the flow's own certified throughput
// within the first phases and every solve finishes inside 1.5·scale. The
// final dual sweep must also leave each converged solve a tighter
// certificate than the per-phase bound the pre-ratchet solver reported on
// the same chain.
func TestRatchetBoundsPhases(t *testing.T) {
	const eps = 0.1
	// DualGap() of the k=4, 6, 8 solves at the parent of the ratchet change.
	parentGap := []float64{0.1588, 0.1723, 0.1812}
	scales, chain := solveAllToAllChain(t, eps)
	for i, res := range chain {
		k := 4 + 2*i
		if res.Approximate {
			t.Fatalf("k=%d: unbudgeted solve flagged Approximate", k)
		}
		if r := float64(res.Phases) / scales[i]; r > 1.5 {
			t.Errorf("k=%d: %d phases = %.2f·scale, want ≤ 1.5·scale", k, res.Phases, r)
		}
		if res.Lambda > res.UpperBound {
			t.Errorf("k=%d: λ %g above its own UpperBound %g", k, res.Lambda, res.UpperBound)
		}
		if gap := res.DualGap(); gap > parentGap[i] {
			t.Errorf("k=%d: DualGap %.4f looser than the pre-ratchet solver's %.4f", k, gap, parentGap[i])
		}
	}
}

// TestDemandScalingIsMetamorphic: multiplying every demand by c is a change
// of units, so λ scales by 1/c (within ε — the probe absorbs c, but float
// rounding may reorder ties) and the phase count, which depends only on
// normalized OPT, stays put. A ratchet that leaked units into either would
// show here.
func TestDemandScalingIsMetamorphic(t *testing.T) {
	const eps = 0.1
	nw, comms := allToAllColumn(t, 6)
	base, err := MaxConcurrentFlow(context.Background(), nw, comms, Options{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{1e-3, 7, 1e3} {
		res, err := MaxConcurrentFlow(context.Background(), nw, scaled(comms, c), Options{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(res.Lambda*c-base.Lambda) / base.Lambda; rel > eps {
			t.Errorf("c=%g: λ·c = %g vs base λ %g, off by %.3f > ε", c, res.Lambda*c, base.Lambda, rel)
		}
		if d := math.Abs(float64(res.Phases - base.Phases)); d > 0.1*float64(base.Phases) {
			t.Errorf("c=%g: %d phases vs base %d, more than 10%% apart", c, res.Phases, base.Phases)
		}
		if res.Lambda > res.UpperBound {
			t.Errorf("c=%g: λ %g above its own UpperBound %g", c, res.Lambda, res.UpperBound)
		}
	}
}

// FuzzSolverCertificate decodes bytes into a k=4 flat-tree mode, an ε, a
// demand scale and up to four commodities — byte 0 the mode, byte 1 the ε,
// byte 2 the power of ten, then (src, dst, demand) triples — and runs
// checkChain on it: certificates against the exact LP (checkExact when the
// decoded instance is a star) and a bit-identical re-solve on used scratch.
// The seed corpus is checked in under testdata/fuzz/FuzzSolverCertificate.
func FuzzSolverCertificate(f *testing.F) {
	// Solves only read the network, so the three are built once.
	nets := make([]*topo.Network, len(k4Modes))
	var servers []int // the same ids in every mode
	for i, mode := range k4Modes {
		nets[i], servers = k4FlatTree(f, mode)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		mi := int(data[0]) % len(k4Modes)
		mode, nw := k4Modes[mi], nets[mi]
		eps := []float64{0.05, 0.1, 0.2}[int(data[1])%3]
		scale := math.Pow(10, float64(int(data[2])%7-3)) // 1e-3 … 1e3
		var comms []Commodity
		for rest := data[3:]; len(rest) >= 3 && len(comms) < 4; rest = rest[3:] {
			s, d := int(rest[0])%len(servers), int(rest[1])%len(servers)
			if s != d {
				comms = append(comms, Commodity{Src: servers[s], Dst: servers[d], Demand: float64(1+int(rest[2])%8) * scale})
			}
		}
		if len(comms) == 0 {
			return
		}
		checkChain(t, fmt.Sprintf("%v eps=%g scale=%g %v", mode, eps, scale, comms), nw, comms, eps)
	})
}
