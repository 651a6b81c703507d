package mcf

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"flattree/internal/fattree"
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

func TestTimeBudgetStopsSolve(t *testing.T) {
	// A larger instance so one phase cannot finish everything instantly.
	ft, err := fattree.New(8)
	if err != nil {
		t.Fatal(err)
	}
	servers := ft.Net.Servers()
	var comms []Commodity
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			if i != j {
				comms = append(comms, Commodity{Src: servers[i], Dst: servers[j], Demand: 1})
			}
		}
	}
	res, err := MaxConcurrentFlow(context.Background(), ft.Net, comms, Options{Epsilon: 0.02, TimeBudget: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Approximate {
		t.Skip("solve finished inside 1ms; nothing to assert")
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
	ft, err := fattree.New(8)
	if err != nil {
		t.Fatal(err)
	}
	servers := ft.Net.Servers()
	var comms []Commodity
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			if i != j {
				comms = append(comms, Commodity{Src: servers[i], Dst: servers[j], Demand: 1})
			}
		}
	}
	// Generous enough for the demand-scaling probe (which is unbudgeted),
	// far too short for the eps=0.02 solve.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	res, err := MaxConcurrentFlow(ctx, ft.Net, comms, Options{Epsilon: 0.02})
	if err != nil {
		t.Fatalf("deadline-bounded solve errored instead of degrading: %v", err)
	}
	if !res.Approximate {
		t.Skip("solve converged inside the deadline; nothing to assert")
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
