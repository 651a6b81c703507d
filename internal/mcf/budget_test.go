package mcf

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"flattree/internal/fattree"
	"flattree/internal/topo"
)

// TestPhaseBudgetDegradesGracefully cross-checks the budget semantics
// against the exact LP on a small instance (three diameter demands on a
// 6-ring, optimum 2/3): an unbounded solve must meet its epsilon bound
// unflagged, and a phase-truncated solve must report exactly the phases it
// completed and be flagged Approximate while staying feasible.
func TestPhaseBudgetDegradesGracefully(t *testing.T) {
	ring := ringNetwork(6)
	servers := ring.Servers()
	comms := []Commodity{
		{Src: servers[0], Dst: servers[3], Demand: 1},
		{Src: servers[1], Dst: servers[4], Demand: 1},
		{Src: servers[2], Dst: servers[5], Demand: 1},
	}
	exact, err := exactLP(ring, comms)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.05
	full, err := MaxConcurrentFlow(context.Background(), ring, comms, Options{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	if full.Approximate {
		t.Fatalf("unbounded solve flagged Approximate (phases=%d)", full.Phases)
	}
	if full.Lambda < (1-2*eps)*exact || full.Lambda > exact+1e-9 {
		t.Fatalf("unbounded lambda %g outside epsilon bound of exact %g", full.Lambda, exact)
	}
	if full.Phases < 4 {
		t.Fatalf("solver converged in %d phases; no room to truncate", full.Phases)
	}

	// Cut the phase budget well below convergence: the solver must flag
	// the result and still return a feasible (never above exact) lambda.
	st := getState()
	defer putState(st)
	if err := aggregate(ring, comms, &st.pr); err != nil {
		t.Fatal(err)
	}
	cut, err := st.fptas(context.Background(), Options{Epsilon: eps}, full.Phases/2)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Phases != full.Phases/2 {
		t.Errorf("phase-capped solve reports %d phases, want %d", cut.Phases, full.Phases/2)
	}
	if !cut.Approximate {
		t.Errorf("truncated solve (phases=%d of %d) not flagged Approximate", cut.Phases, full.Phases)
	}
	if cut.Lambda > exact+1e-9 {
		t.Errorf("truncated lambda %g exceeds exact optimum %g — infeasible", cut.Lambda, exact)
	}
	if cut.Lambda <= 0 {
		t.Errorf("truncated solve routed nothing (lambda=%g) after %d phases", cut.Lambda, cut.Phases)
	}
	// The dual bound keeps telling the truth on the degraded result.
	if !math.IsInf(cut.UpperBound, 1) && cut.UpperBound < exact-1e-9 {
		t.Errorf("degraded dual bound %g below optimum %g", cut.UpperBound, exact)
	}
}

// pastDeadline is a context whose deadline has already passed while its Err
// is still nil — the instant between a deadline and its timer firing, held
// still. A solve under it runs the probe and then takes the deadline's
// degrade path at the first phase-loop check, with no race against a timer.
type pastDeadline struct{ context.Context }

func (pastDeadline) Deadline() (time.Time, bool) { return time.Now().Add(-time.Second), true }

// TestPhasesCountsCompletedOnly is the regression test for the
// over-reporting bug: a solve whose deadline passes before the first phase
// completes must report Phases == 0 (and only the probe's Dijkstra passes).
// Its λ is the probe's feasible one: positive and at most the optimum.
// TestPhaseBudgetDegradesGracefully holds the phase-cap side.
func TestPhasesCountsCompletedOnly(t *testing.T) {
	ft, err := fattree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	var comms []Commodity
	for i := 0; i < 8; i++ {
		comms = append(comms, Commodity{Src: ft.ServerIDs[i], Dst: ft.ServerIDs[15-i], Demand: 1})
	}
	// The deadline has passed when the first iteration checks it, so zero
	// phases complete.
	res, err := MaxConcurrentFlow(pastDeadline{context.Background()}, ft.Net, comms,
		Options{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases != 0 {
		t.Errorf("deadline-stopped solve reports %d phases, want 0", res.Phases)
	}
	if !res.Approximate {
		t.Error("deadline-stopped solve not flagged Approximate")
	}
	exact, err := exactLP(ft.Net, comms)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Lambda > 0 && res.Lambda <= exact*(1+1e-9)) {
		t.Errorf("deadline-stopped λ = %g, want in (0, %g]", res.Lambda, exact)
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
}

// edgeAllToAll is an instance no deadline below seconds can see converge:
// one server on every edge switch of fat-tree(k), all ordered pairs. At
// k = 16 (128 switches, 16 256 commodities) and ε = 0.02 the FPTAS needs
// 19 130 phases, 3 min 43 s on a 2-core host, where a 150 ms deadline
// completes 13 phases.
func edgeAllToAll(t *testing.T, k int) (*topo.Network, []Commodity) {
	t.Helper()
	ft, err := fattree.New(k)
	if err != nil {
		t.Fatal(err)
	}
	// One server per edge switch, ascending by switch: the first its
	// links attach.
	first := make(map[int]int)
	for _, l := range ft.Net.Links {
		for _, sv := range [2]int{l.A, l.B} {
			if ft.Net.Nodes[sv].Kind != topo.Server {
				continue
			}
			if _, ok := first[ft.Net.HostSwitch(sv)]; !ok {
				first[ft.Net.HostSwitch(sv)] = sv
			}
		}
	}
	var picks []int
	for _, sw := range ft.Net.Switches() {
		if ft.Net.Nodes[sw].Kind == topo.EdgeSwitch {
			picks = append(picks, first[sw])
		}
	}
	var comms []Commodity
	for _, a := range picks {
		for _, b := range picks {
			if a != b {
				comms = append(comms, Commodity{Src: a, Dst: b, Demand: 1})
			}
		}
	}
	return ft.Net, comms
}

// TestCtxDeadlineDerivesBudget pins deadline propagation: a context
// deadline must degrade a long solve to an
// approximate λ rather than surfacing context.DeadlineExceeded — that is
// what lets a serving path turn client timeouts into `~` cells.
func TestCtxDeadlineDerivesBudget(t *testing.T) {
	nw, comms := edgeAllToAll(t, 16)
	// Generous enough for the demand-scaling probe (which is unbudgeted),
	// three orders of magnitude short of the eps=0.02 solve.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	res, err := MaxConcurrentFlow(ctx, nw, comms, Options{Epsilon: 0.02})
	if err != nil {
		t.Fatalf("deadline-bounded solve errored instead of degrading: %v", err)
	}
	if !res.Approximate {
		t.Fatalf("a 150ms deadline converged an instance that needs ~19 000 phases (%d phases reported)", res.Phases)
	}
	if res.Lambda < 0 {
		t.Errorf("degraded lambda %g negative", res.Lambda)
	}
}

// lateDeadline is a context whose deadline lies an hour ahead while its Err
// reports DeadlineExceeded from its n-th call on: the deadline passed,
// margin and all, while the solver was descheduled between two checks.
type lateDeadline struct {
	context.Context
	n *int
}

func (lateDeadline) Deadline() (time.Time, bool) { return time.Now().Add(time.Hour), true }

func (c lateDeadline) Err() error {
	if *c.n--; *c.n < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestDeadlineBetweenChecksDegrades: a deadline the phase loop first sees as
// ctx.Err() rather than through its margin still degrades the solve to the
// best feasible λ; only cancellation aborts it (TestCancellationAbortsSolve).
func TestDeadlineBetweenChecksDegrades(t *testing.T) {
	ring := ringNetwork(6)
	servers := ring.Servers()
	comms := []Commodity{
		{Src: servers[0], Dst: servers[3], Demand: 1},
		{Src: servers[1], Dst: servers[4], Demand: 1},
		{Src: servers[2], Dst: servers[5], Demand: 1},
	}
	exact, err := exactLP(ring, comms)
	if err != nil {
		t.Fatal(err)
	}
	// Three probe passes check Err once each; the phase loop gets five more.
	n := 8
	res, err := MaxConcurrentFlow(lateDeadline{context.Background(), &n}, ring, comms, Options{Epsilon: 0.05})
	if err != nil {
		t.Fatalf("deadline seen through ctx.Err() errored instead of degrading: %v", err)
	}
	if !res.Approximate || !(res.Lambda > 0 && res.Lambda <= exact*(1+1e-9)) {
		t.Errorf("λ %g (approximate %t); want an approximate λ in (0, %g]", res.Lambda, res.Approximate, exact)
	}
}

// TestDeadlineInProbeDegrades: a deadline that passes during the
// demand-scaling probe ends the solve with nothing routed — λ = 0, no bound,
// flagged Approximate — instead of failing it.
func TestDeadlineInProbeDegrades(t *testing.T) {
	ring, comms := ringDiameters(t)
	// The probe checks Err once per source (three here): the second fires.
	n := 1
	res, err := MaxConcurrentFlow(lateDeadline{context.Background(), &n}, ring, comms, Options{Epsilon: 0.05})
	if err != nil {
		t.Fatalf("deadline during the probe errored instead of degrading: %v", err)
	}
	if !res.Approximate || res.Lambda != 0 || !math.IsInf(res.UpperBound, 1) || res.Phases != 0 {
		t.Errorf("got %+v; want Approximate, λ = 0, UpperBound = +Inf, 0 phases", res)
	}
	if res.Dijkstras != 1 {
		t.Errorf("Dijkstras = %d, want the 1 probe pass that ran", res.Dijkstras)
	}
}

// TestDeadlineInFinalSweepKeepsConvergedLambda: a deadline that passes
// during the exact final dual sweep leaves a converged solve converged —
// the same λ, not flagged Approximate — with the per-phase bound it held
// before the sweep, which is no tighter than the swept one.
func TestDeadlineInFinalSweepKeepsConvergedLambda(t *testing.T) {
	ring, comms := ringDiameters(t)
	// Count the Err calls of a solve whose deadline never fires; the last
	// three are the sweep's, one per source.
	n := 1 << 30
	full, err := MaxConcurrentFlow(lateDeadline{context.Background(), &n}, ring, comms, Options{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	calls := 1<<30 - n
	// Fire at the sweep's second check.
	n = calls - 2
	res, err := MaxConcurrentFlow(lateDeadline{context.Background(), &n}, ring, comms, Options{Epsilon: 0.05})
	if err != nil {
		t.Fatalf("deadline during the final sweep errored instead of degrading: %v", err)
	}
	if res.Approximate || res.Lambda != full.Lambda || res.Phases != full.Phases {
		t.Errorf("got %+v; want the converged λ %g after %d phases, unflagged", res, full.Lambda, full.Phases)
	}
	if !(res.UpperBound >= full.UpperBound) || math.IsInf(res.UpperBound, 1) {
		t.Errorf("UpperBound %g; want the per-phase bound, finite and ≥ the swept %g", res.UpperBound, full.UpperBound)
	}
	if res.Dijkstras != full.Dijkstras-2 {
		t.Errorf("Dijkstras = %d, want %d (the sweep's last two passes not run)", res.Dijkstras, full.Dijkstras-2)
	}
}

// ringDiameters is the 6-ring with three diameter demands (optimum 2/3):
// three sources, so the probe and the final sweep each make three passes.
func ringDiameters(t *testing.T) (*topo.Network, []Commodity) {
	t.Helper()
	ring := ringNetwork(6)
	servers := ring.Servers()
	return ring, []Commodity{
		{Src: servers[0], Dst: servers[3], Demand: 1},
		{Src: servers[1], Dst: servers[4], Demand: 1},
		{Src: servers[2], Dst: servers[5], Demand: 1},
	}
}

// TestCancellationAbortsSolve: a cancelled context aborts both solve paths —
// the exact one (a single commodity is a star) and the FPTAS.
func TestCancellationAbortsSolve(t *testing.T) {
	ring := ringNetwork(6)
	servers := ring.Servers()
	comms := []Commodity{
		{Src: servers[0], Dst: servers[3], Demand: 1},
		{Src: servers[1], Dst: servers[4], Demand: 1},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for n := 1; n <= 2; n++ {
		_, err := MaxConcurrentFlow(ctx, ring, comms[:n], Options{})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%d commodities: err = %v, want context.Canceled", n, err)
		}
	}
}
