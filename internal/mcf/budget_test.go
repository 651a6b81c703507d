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
	exact, err := MaxConcurrentFlowExact(ring, comms)
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
	cut, err := MaxConcurrentFlow(context.Background(), ring, comms, Options{Epsilon: eps, MaxPhases: full.Phases / 2})
	if err != nil {
		t.Fatal(err)
	}
	if cut.Phases != full.Phases/2 {
		t.Errorf("MaxPhases-limited solve reports %d phases, want %d", cut.Phases, full.Phases/2)
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

// TestPhasesCountsCompletedOnly is the regression test for the
// over-reporting bug: a solve whose TimeBudget expires before the first
// phase completes must report Phases == 0 (and only the probe's Dijkstra
// passes). TestPhaseBudgetDegradesGracefully holds the MaxPhases side.
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
}

// edgeAllToAll is an instance no budget below seconds can see converge:
// one server on every edge switch of fat-tree(k), all ordered pairs. At
// k = 16 (128 switches, 16 256 commodities) and ε = 0.02 the FPTAS needs
// 19 130 phases, 3 min 43 s on a 2-core host, where a 150 ms budget
// completes 13 phases and a 1 ms one none.
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

func TestTimeBudgetStopsSolve(t *testing.T) {
	nw, comms := edgeAllToAll(t, 16)
	res, err := MaxConcurrentFlow(context.Background(), nw, comms, Options{Epsilon: 0.02, TimeBudget: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Approximate {
		t.Fatalf("a 1ms budget converged an instance that needs ~19 000 phases (%d phases reported)", res.Phases)
	}
	if res.Lambda < 0 {
		t.Errorf("degraded lambda %g negative", res.Lambda)
	}
}

// TestCtxDeadlineDerivesBudget pins deadline propagation: a context
// deadline alone (no TimeBudget) must degrade a long solve to an
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
