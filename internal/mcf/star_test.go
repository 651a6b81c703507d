package mcf

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"flattree/internal/core"
	"flattree/internal/fattree"
	"flattree/internal/graph"
	"flattree/internal/jellyfish"
	"flattree/internal/topo"
)

// hotSpot draws a broadcast instance: one random hot-spot server sending to a
// random non-empty subset of the others, demands 1..4 times scale.
func hotSpot(rng *graph.RNG, servers []int, scale float64) []Commodity {
	hot := rng.Intn(len(servers))
	var comms []Commodity
	for len(comms) == 0 {
		for i, sv := range servers {
			if i != hot && rng.Intn(3) == 0 {
				comms = append(comms, Commodity{Src: servers[hot], Dst: sv, Demand: float64(1+rng.Intn(4)) * scale})
			}
		}
	}
	return comms
}

// transposed returns comms with every commodity reversed: the incast that
// mirrors a broadcast.
func transposed(comms []Commodity) []Commodity {
	out := make([]Commodity, len(comms))
	for i, c := range comms {
		out[i] = Commodity{Src: c.Dst, Dst: c.Src, Demand: c.Demand}
	}
	return out
}

// TestStarMatchesLP is the generated differential check of the exact path:
// random hot spots on the k=4 flat-tree in every mode, demands scaled across
// six orders of magnitude, each held to the LP optimum within 1e-9 cold and
// down a Solver chain (checkChain's star leg), and the mirrored incast
// bit-identical to its broadcast transpose.
func TestStarMatchesLP(t *testing.T) {
	ctx := context.Background()
	for _, mode := range k4Modes {
		nw, servers := k4FlatTree(t, mode)
		for seed := uint64(0); seed < 3; seed++ {
			for _, c := range []float64{1e-3, 1, 1e3} {
				comms := hotSpot(graph.NewRNG(seed*17+uint64(mode)), servers, c)
				label := fmt.Sprintf("%v seed=%d scale=%g", mode, seed, c)
				if !isStar(t, nw, comms) || !isStar(t, nw, transposed(comms)) {
					t.Fatalf("%s: hot-spot instance not recognised as a star", label)
				}
				checkChain(t, label, nw, comms, 0.1)
				out, err := MaxConcurrentFlow(ctx, nw, comms, Options{})
				if err != nil {
					t.Fatal(err)
				}
				in, err := MaxConcurrentFlow(ctx, nw, transposed(comms), Options{})
				if err != nil {
					t.Fatal(err)
				}
				if in.Lambda != out.Lambda || in.UpperBound != out.UpperBound {
					t.Errorf("%s: incast λ %.17g (bound %.17g) differs from its broadcast transpose's %.17g (%.17g)",
						label, in.Lambda, in.UpperBound, out.Lambda, out.UpperBound)
				}
			}
		}
	}
}

// TestStarScalingIsMetamorphic: multiplying every demand by c divides the
// exact λ by c — to rounding, with no ε to hide behind.
func TestStarScalingIsMetamorphic(t *testing.T) {
	nw, servers := k4FlatTree(t, core.ModeGlobalRandom)
	comms := hotSpot(graph.NewRNG(5), servers, 1)
	base, err := MaxConcurrentFlow(context.Background(), nw, comms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{1e-3, 7, 1e3} {
		res, err := MaxConcurrentFlow(context.Background(), nw, scaled(comms, c), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(res.Lambda*c-base.Lambda) / base.Lambda; rel > 1e-12 {
			t.Errorf("c=%g: λ·c = %.15g vs base λ %.15g, off by %g", c, res.Lambda*c, base.Lambda, rel)
		}
	}
}

// fig7Instance is one cell of the paper's Figure 7 at k ≤ 16: all k³/4
// servers form a single (capped) 1000-server cluster, one seeded hot spot
// broadcasts to the rest, and demands are scaled so it sources 999 units.
func fig7Instance(servers []int, seed uint64) []Commodity {
	hot := graph.NewRNG(seed).Intn(len(servers))
	demand := 999 / float64(len(servers)-1)
	comms := make([]Commodity, 0, len(servers)-1)
	for i, sv := range servers {
		if i != hot {
			comms = append(comms, Commodity{Src: servers[hot], Dst: sv, Demand: demand})
		}
	}
	return comms
}

// fabric is one of the paper's three topologies at some k.
type fabric struct {
	name    string
	nw      *topo.Network
	servers []int
}

// fabrics builds fat-tree, flat-tree (global-random mode) and random graph
// at k from the same equipment.
func fabrics(tb testing.TB, k int) []fabric {
	tb.Helper()
	fat, err := fattree.New(k)
	if err != nil {
		tb.Fatal(err)
	}
	flat, err := core.BuildIn(core.Params{K: k}, core.ModeGlobalRandom)
	if err != nil {
		tb.Fatal(err)
	}
	rg, err := jellyfish.New(k, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return []fabric{
		{"fat-tree", fat.Net, fat.ServerIDs},
		{"flat-tree", flat.Net(), flat.ServerIDs},
		{"random-graph", rg.Net, rg.ServerIDs},
	}
}

// fptasOnly runs the FPTAS on comms whatever their shape, the way solve
// would have had it not recognised a star.
func fptasOnly(tb testing.TB, nw *topo.Network, comms []Commodity, eps float64) (Result, error) {
	tb.Helper()
	st := getState()
	defer putState(st)
	if err := aggregate(nw, comms, &st.pr); err != nil {
		tb.Fatal(err)
	}
	return st.fptas(context.Background(), Options{Epsilon: eps, MaxPhases: 1 << 20})
}

// TestStarBracketsFPTAS uses the exact path as the oracle where the LP
// cannot reach: on the Figure 7 single-hot-spot instances at k = 12 and 16 of
// all three topologies, the FPTAS — driven directly, since solve would
// dispatch these to the exact path — must bracket the exact value with its
// own certificate and sit within its ε guarantee of it.
func TestStarBracketsFPTAS(t *testing.T) {
	const eps = 0.1
	for _, k := range []int{12, 16} {
		for _, tc := range fabrics(t, k) {
			comms := fig7Instance(tc.servers, uint64(k))
			star, err := MaxConcurrentFlow(context.Background(), tc.nw, comms, Options{Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			if gap := star.DualGap(); star.Dijkstras != 0 || !(gap < 1e-9) {
				t.Fatalf("k=%d %s: not solved exactly: %d Dijkstras, DualGap %g", k, tc.name, star.Dijkstras, gap)
			}
			approx, err := fptasOnly(t, tc.nw, comms, eps)
			if err != nil {
				t.Fatal(err)
			}
			if approx.Approximate || approx.Dijkstras == 0 {
				t.Fatalf("k=%d %s: FPTAS leg did not run to convergence: %+v", k, tc.name, approx)
			}
			if approx.Lambda > star.Lambda*(1+1e-9) || star.Lambda > approx.UpperBound*(1+1e-9) {
				t.Errorf("k=%d %s: FPTAS bracket [%g, %g] does not contain the exact λ %g",
					k, tc.name, approx.Lambda, approx.UpperBound, star.Lambda)
			}
			if approx.Lambda < (1-3*eps)*star.Lambda {
				t.Errorf("k=%d %s: FPTAS λ %g is %.3f of the exact λ %g, below 1−3ε",
					k, tc.name, approx.Lambda, approx.Lambda/star.Lambda, star.Lambda)
			}
		}
	}
}

// islands builds two disconnected two-switch components with a server on
// the first switch of each, plus a second server on the first component's
// far switch so a reachable leaf sorts before the unreachable one.
func islands() (nw *topo.Network, near, mid, far int) {
	b := topo.NewBuilder("islands")
	a0 := b.AddNode(topo.EdgeSwitch, 0, 0, 4)
	a1 := b.AddNode(topo.EdgeSwitch, 0, 1, 4)
	b.AddLink(a0, a1, topo.TagClos)
	c0 := b.AddNode(topo.EdgeSwitch, 1, 0, 4)
	c1 := b.AddNode(topo.EdgeSwitch, 1, 1, 4)
	b.AddLink(c0, c1, topo.TagClos)
	near = b.AddNode(topo.Server, 0, 0, 1)
	mid = b.AddNode(topo.Server, 0, 1, 1)
	far = b.AddNode(topo.Server, 1, 0, 1)
	b.AddLink(near, a0, topo.TagClos)
	b.AddLink(mid, a1, topo.TagClos)
	b.AddLink(far, c0, topo.TagClos)
	return b.Build(), near, mid, far
}

// TestStarDisconnectedMatchesFPTAS: a star with an unreachable leaf fails
// with the FPTAS's own error text, in either orientation.
func TestStarDisconnectedMatchesFPTAS(t *testing.T) {
	nw, near, mid, far := islands()
	broadcast := []Commodity{{Src: near, Dst: mid, Demand: 1}, {Src: near, Dst: far, Demand: 2}}
	for _, comms := range [][]Commodity{broadcast, transposed(broadcast)} {
		_, err := MaxConcurrentFlow(context.Background(), nw, comms, Options{})
		_, want := fptasOnly(t, nw, comms, 0.08)
		if want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("star error %q, FPTAS error %q", err, want)
		}
	}
}

// twoRoundStar is a star whose first guess is wrong: the center has two
// links but everything behind them funnels into one, so the first max flow
// falls short and Newton takes a second round.
func twoRoundStar() (*topo.Network, []Commodity) {
	b := topo.NewBuilder("funnel")
	sw := make([]int, 5)
	for i := range sw {
		sw[i] = b.AddNode(topo.EdgeSwitch, 0, i, 4)
	}
	for _, l := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}} {
		b.AddLink(sw[l[0]], sw[l[1]], topo.TagClos)
	}
	return b.Build(), []Commodity{{Src: sw[0], Dst: sw[4], Demand: 4}}
}

// errAfter is a context whose Err turns into context.Canceled after the
// first ok calls — a cancellation that lands between two max-flow rounds.
type errAfter struct {
	context.Context
	ok, calls int
}

func (c *errAfter) Err() error {
	c.calls++
	if c.calls > c.ok {
		return context.Canceled
	}
	return nil
}

// TestStarChecksContextBetweenRounds: the exact path asks the context once
// per max-flow round, so a cancellation after the first round aborts the
// solve and one before it never starts it.
func TestStarChecksContextBetweenRounds(t *testing.T) {
	nw, comms := twoRoundStar()
	ctx := &errAfter{Context: context.Background(), ok: 100}
	res, err := MaxConcurrentFlow(ctx, nw, comms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda != 0.25 || res.UpperBound != 0.25 || ctx.calls != 2 {
		t.Errorf("funnel: λ %g, bound %g after %d rounds; want 0.25, 0.25 after 2", res.Lambda, res.UpperBound, ctx.calls)
	}
	for ok := 0; ok < 2; ok++ {
		if _, err := MaxConcurrentFlow(&errAfter{Context: context.Background(), ok: ok}, nw, comms, Options{}); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled after %d rounds: err = %v, want context.Canceled", ok, err)
		}
	}
}

// TestStarIgnoresBudgets: there is nothing to cut short on the exact path,
// so neither a spent TimeBudget nor a context deadline produces an
// Approximate result (an expired context is an error, as everywhere), and
// SkipDualBound still gets the cut certificate, which costs nothing.
func TestStarIgnoresBudgets(t *testing.T) {
	nw, comms := twoRoundStar()
	withDeadline, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		opt  Options
	}{
		{"spent TimeBudget", context.Background(), Options{TimeBudget: time.Nanosecond}},
		{"context deadline", withDeadline, Options{}},
		{"one phase allowed", context.Background(), Options{MaxPhases: 1}},
		{"SkipDualBound", context.Background(), Options{SkipDualBound: true}},
	} {
		res, err := MaxConcurrentFlow(tc.ctx, nw, comms, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkExact(t, tc.name, res, 0.25)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := MaxConcurrentFlow(expired, nw, comms, Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
	// Options are still validated before the dispatch.
	if _, err := MaxConcurrentFlow(context.Background(), nw, comms, Options{Epsilon: 0.5}); err == nil {
		t.Error("Epsilon 0.5 accepted on a star instance")
	}
}

// BenchmarkStar measures the exact path on a whole-fabric hot spot — one
// seeded server broadcasting to every other, on Figure 7's demand scale — at
// k = 16 (a Figure 7 cell: 1024 servers), the paper's largest k = 32 and the
// scale probe's k = 48 (2 880 switches, 27 647 leaves), on all three
// topologies. λ rides along as a metric.
func BenchmarkStar(b *testing.B) {
	for _, k := range []int{16, 32, 48} {
		for _, tc := range fabrics(b, k) {
			b.Run(fmt.Sprintf("k=%d/%s", k, tc.name), func(b *testing.B) {
				comms := fig7Instance(tc.servers, 1)
				var res Result
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if res, err = MaxConcurrentFlow(context.Background(), tc.nw, comms, Options{}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.Lambda, "lambda")
				b.ReportMetric(res.DualGap(), "dual_gap")
			})
		}
	}
}
