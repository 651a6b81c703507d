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
// aggregated instance has one root, every commodity one switch at one end.
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
	exact, err := exactLP(nw, comms)
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

// chainSolve is one solve of a chain: its result, its feasibility scale
// (the phase count at normalized OPT = 1), its number of shortest-path
// roots and the distinct source switches of its input.
type chainSolve struct {
	res     Result
	scale   float64
	roots   int
	sources int
}

// solveChain solves each instance on one solve state.
func solveChain(tb testing.TB, nw []*topo.Network, comms [][]Commodity, opt Options) []chainSolve {
	tb.Helper()
	st := new(solveState)
	var out []chainSolve
	for i := range nw {
		res, err := st.solve(context.Background(), nw[i], comms[i], opt)
		if err != nil {
			tb.Fatalf("instance %d: %v", i, err)
		}
		_, scale := gkConstants(opt.Epsilon, st.pr.g.M())
		out = append(out, chainSolve{res: res, scale: scale, roots: len(st.pr.srcs), sources: inputSources(tb, nw[i], comms[i])})
	}
	return out
}

// inputSources counts the distinct source switches of comms' cross-switch
// commodities: the roots the FPTAS would pay for in the input's own
// orientation.
func inputSources(tb testing.TB, nw *topo.Network, comms []Commodity) int {
	tb.Helper()
	src := map[int]bool{}
	for _, c := range comms {
		s, err := nw.EntrySwitch(c.Src)
		if err != nil {
			tb.Fatal(err)
		}
		t, err := nw.EntrySwitch(c.Dst)
		if err != nil {
			tb.Fatal(err)
		}
		if s != t {
			src[s] = true
		}
	}
	return len(src)
}

// solveAllToAllChain solves the k=4→6→8 all-to-all column on one solve
// state.
func solveAllToAllChain(tb testing.TB, eps float64) []chainSolve {
	tb.Helper()
	var nws []*topo.Network
	var comms [][]Commodity
	for _, k := range []int{4, 6, 8} {
		nw, cs := allToAllColumn(tb, k)
		nws, comms = append(nws, nw), append(comms, cs)
	}
	return solveChain(tb, nws, comms, Options{Epsilon: eps})
}

// permutationSeeds are the server permutations of the permutation chain.
var permutationSeeds = []uint64{1, 2, 3}

// solvePermutationChain solves chaos.Score's instance — a seeded server
// permutation, unit demands, fixed points dropped, no dual bound — on the
// global-random flat-tree at k = 8 for each of permutationSeeds, on one
// solve state. The permutation is built here as traffic.Permutation builds
// it, since mcf sits below traffic.
func solvePermutationChain(tb testing.TB, eps float64) []chainSolve {
	tb.Helper()
	ft, err := core.BuildIn(core.Params{K: 8}, core.ModeGlobalRandom)
	if err != nil {
		tb.Fatal(err)
	}
	var nws []*topo.Network
	var comms [][]Commodity
	for _, seed := range permutationSeeds {
		var cs []Commodity
		for i, p := range graph.NewRNG(seed).Perm(len(ft.ServerIDs)) {
			if i != p {
				cs = append(cs, Commodity{Src: ft.ServerIDs[i], Dst: ft.ServerIDs[p], Demand: 1})
			}
		}
		nws, comms = append(nws, ft.Net()), append(comms, cs)
	}
	return solveChain(tb, nws, comms, Options{Epsilon: eps, SkipDualBound: true})
}

// TestRatchetBoundsPhases pins what the ratchet is for. A Garg-Könemann
// solve takes (normalized OPT)·scale phases; before the ratchet the probe
// left the k=4 solve of this column at 3.03·scale. With it the normalizer is pulled up to the flow's own certified throughput
// within the first phases and every solve finishes inside 1.5·scale. The
// final dual sweep must also leave each converged solve a tighter
// certificate than the per-phase bound the pre-ratchet solver reported on
// the same chain. And path reuse must fire in every iteration: each solve
// runs fewer shortest-path passes than the solver that reused stored paths
// only at a source's first iteration of a phase did on the same chain (its
// α < 1 iterations each ran a pass, 0.4–0.7 × Phases × sources of them). On
// this column the orientation saves no roots — each cluster's demand graph
// is complete, so every vertex cover leaves one switch out, as the input's
// own orientation does — and the cut is reuse alone.
func TestRatchetBoundsPhases(t *testing.T) {
	const eps = 0.1
	// DualGap() of the k=4, 6, 8 solves at the parent of the ratchet change.
	parentGap := []float64{0.1588, 0.1723, 0.1812}
	// Dijkstras of the k=4, 6, 8 solves with reuse at a source's first
	// iteration only (361, 479 and 558 phases over 7, 17 and 31 sources);
	// without any reuse they were 3439, 12520 and 29253.
	firstOnly := []int{2740, 10699, 27757}
	for i, cs := range solveAllToAllChain(t, eps) {
		k, res := 4+2*i, cs.res
		if res.Approximate {
			t.Fatalf("k=%d: unbudgeted solve flagged Approximate", k)
		}
		if res.Dijkstras >= firstOnly[i] {
			t.Errorf("k=%d: %d shortest-path passes (%d phases × %d roots), want fewer than the %d with first-iteration reuse",
				k, res.Dijkstras, res.Phases, cs.roots, firstOnly[i])
		}
		if r := float64(res.Phases) / cs.scale; r > 1.5 {
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

// TestPermutationRootsAndPasses pins the work of the instance chaos.Score
// solves for selfheal, faultsrecovery and soak: a seeded server permutation
// on the global-random flat-tree at k = 8. Its 125–127 switch pairs leave
// 78–80 input sources, so the orientation has a cover to find, and every
// pass it saves is a pass of every iteration. Rooted at the input's sources
// with reuse at a source's first iteration only, the three solves ran
// 40893, 40771 and 40761 passes over 80, 78 and 80 roots; now roots must
// stay at most 0.6 of the input's sources (45, 44 and 47 when pinned) and
// passes at most 0.65 of that count (24331, 23744 and 25100 when pinned).
func TestPermutationRootsAndPasses(t *testing.T) {
	firstOnly := []int{40893, 40771, 40761}
	for i, cs := range solvePermutationChain(t, 0.1) {
		seed, res := permutationSeeds[i], cs.res
		if res.Approximate || !(res.Lambda > 0) {
			t.Fatalf("seed %d: λ %g (approximate %t); want a converged solve", seed, res.Lambda, res.Approximate)
		}
		if float64(cs.roots) > 0.6*float64(cs.sources) {
			t.Errorf("seed %d: %d roots for %d input sources, want at most 0.6 of them", seed, cs.roots, cs.sources)
		}
		if float64(res.Dijkstras) > 0.65*float64(firstOnly[i]) {
			t.Errorf("seed %d: %d shortest-path passes (%d phases × %d roots), want at most 0.65 × %d",
				seed, res.Dijkstras, res.Phases, cs.roots, firstOnly[i])
		}
	}
}

// TestStoredPathsStayValid checks the state path reuse routes on, after
// a solve of the k = 6 all-to-all column, whose sources both reuse their
// stored paths across phases and refresh them several times within one.
// Every commodity's stored path must walk from its destination to its own
// source, and its stored distance must be a lower bound on the current
// one — what pathsHold's 1+ε test relies on.
func TestStoredPathsStayValid(t *testing.T) {
	nw, comms := allToAllColumn(t, 6)
	st := new(solveState)
	if _, err := st.solve(context.Background(), nw, comms, Options{Epsilon: 0.1}); err != nil {
		t.Fatal(err)
	}
	pr, ar := &st.pr, &st.ar
	for si, src := range pr.srcs {
		pr.sourcePass(ar, si, ar.length)
		for j := pr.srcOff[si]; j < pr.srcOff[si+1]; j++ {
			dst := pr.comms[j].dst
			v, length := dst, 0.0
			for _, e := range ar.path(pr, si, j) {
				edge := pr.g.Edge(int(e))
				if edge.A != v && edge.B != v {
					t.Fatalf("source %d, commodity %d: edge %d does not leave node %d", src, j, e, v)
				}
				v = edge.Other(v)
				length += ar.length[e]
			}
			if v != src {
				t.Fatalf("source %d, commodity %d: stored path from %d ends at %d", src, j, dst, v)
			}
			if d := ar.ws.Dist[dst]; ar.lb[j] > d*(1+1e-12) || d > length*(1+1e-12) {
				t.Errorf("source %d, commodity %d: stored distance %g, current distance %g, stored path %g; want lb ≤ dist ≤ path",
					src, j, ar.lb[j], d, length)
			}
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

// checkTranspose asserts what the orientation promises of comms: reversing
// every commodity leaves the instance's LP alone, so it must leave the
// Result alone too, bit for bit — λ, UpperBound, Phases and Dijkstras — and
// the solve roots its shortest paths at no more switches than the input's
// distinct sources or destinations.
func checkTranspose(tb testing.TB, label string, nw *topo.Network, comms []Commodity, eps float64) {
	tb.Helper()
	st := new(solveState)
	want, err := st.solve(context.Background(), nw, comms, Options{Epsilon: eps})
	if err != nil {
		tb.Fatalf("%s: %v", label, err)
	}
	roots := len(st.pr.srcs)
	got, err := new(solveState).solve(context.Background(), nw, transposed(comms), Options{Epsilon: eps})
	if err != nil {
		tb.Fatalf("%s transposed: %v", label, err)
	}
	if got != want {
		tb.Errorf("%s: transposed solve %+v, original %+v", label, got, want)
	}
	if bound := min(inputSources(tb, nw, comms), inputSources(tb, nw, transposed(comms))); roots > bound {
		tb.Errorf("%s: %d roots, more than the input's %d distinct sources or destinations", label, roots, bound)
	}
}

// FuzzSolverCertificate decodes bytes into a k=4 flat-tree mode, an ε, a
// demand scale and up to four commodities — byte 0 the mode, byte 1 the ε,
// byte 2 the power of ten, then (src, dst, demand) triples — and runs
// checkChain on it: certificates against the exact LP (checkExact when the
// decoded instance is a star) and a bit-identical re-solve on used scratch;
// then checkTranspose: the reversed instance solves to the same bits, on no
// more roots than the input's sources or destinations. The seed corpus is
// checked in under testdata/fuzz/FuzzSolverCertificate.
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
		label := fmt.Sprintf("%v eps=%g scale=%g %v", mode, eps, scale, comms)
		checkChain(t, label, nw, comms, eps)
		checkTranspose(t, label, nw, comms, eps)
	})
}
