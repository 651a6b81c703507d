package ctrl

import (
	"context"
	"slices"
	"testing"
	"time"

	"flattree/internal/core"
	"flattree/internal/faults"
)

// podSwitches lists the switch node IDs of one pod in the controller's
// model network.
func podSwitches(c *Controller, pod int) []int {
	nw := c.FlatTree().Net()
	var switches []int
	for _, s := range nw.Switches() {
		if nw.Nodes[s].Pod == pod {
			switches = append(switches, s)
		}
	}
	return switches
}

// TestRepairStepperMatchesSelfHeal: driving PlanRepair window by window
// is the same repair SelfHeal runs in one call — same windows, same end
// state shape.
func TestRepairStepperMatchesSelfHeal(t *testing.T) {
	k := 6
	hp := startHealPlant(t, k)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hp.c.Convert(ctx, uniformModes(k, core.ModeGlobalRandom)); err != nil {
		t.Fatal(err)
	}

	out, err := faults.Fail(hp.c.FlatTree().Net(), faults.Scenario{Switches: podSwitches(hp.c, 2), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r, err := hp.c.PlanRepair(out, SelfHealOptions{Seed: 9, BatchSize: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for !r.Done() {
		w, err := r.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if w != nil {
			steps++
			if w.Dark == nil {
				t.Fatalf("step %d returned a window with no dark network", steps)
			}
		}
	}
	rep := r.Report()
	if steps == 0 || len(rep.Windows) != steps {
		t.Fatalf("stepper executed %d windows, report has %d", steps, len(rep.Windows))
	}
	if rep.Partial || len(rep.Excluded) != 0 {
		t.Errorf("clean stepper repair degraded: partial=%v excluded=%v", rep.Partial, rep.Excluded)
	}
	if rep.Healed == nil {
		t.Fatal("no healed network")
	}
	if r.CurrentNet() != rep.Healed {
		t.Error("CurrentNet after Done differs from Healed")
	}

	frep, err := faults.Analyze(rep.Healed)
	if err != nil {
		t.Fatal(err)
	}
	if !frep.Connected {
		t.Error("healed network is not connected")
	}
}

// TestRepairRetryExhaustionMidStream: the first repair of a link failure
// spends its whole retry budget on two rejecting pods and still commits a
// window; then a second failure lands mid-repair. The in-flight repair is snapshotted
// (Repair.Outcome), the new episode composed onto it, and the successor
// replanned (PlanRepair with prev), inheriting the two excluded pods and the
// empty budget. With every remaining agent rejecting its re-aim, the
// successor must degrade to Partial at its first rejection instead of
// erroring, and never re-aim an inherited pod.
func TestRepairRetryExhaustionMidStream(t *testing.T) {
	k := 6
	hp := startHealPlant(t, k)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hp.c.Convert(ctx, uniformModes(k, core.ModeGlobalRandom)); err != nil {
		t.Fatal(err)
	}

	out, err := faults.Fail(hp.c.FlatTree().Net(), faults.Scenario{LinkFraction: 0.2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	r, err := hp.c.PlanRepair(out, SelfHealOptions{Seed: 4, BatchSize: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w, err := r.Step(ctx); err != nil || w == nil {
		t.Fatalf("first window: %v, %v", w, err)
	}
	// The next two pods reject their re-aim: each costs one retry, and the
	// third pod's window commits.
	if len(r.pending) < maxRetries+2 {
		t.Fatalf("plan has %d pods left, want at least %d", len(r.pending), maxRetries+2)
	}
	rejecting := append([]int(nil), r.pending[:maxRetries]...)
	for _, p := range rejecting {
		hp.agents[p].RejectStage = true
	}
	w, err := r.Step(ctx)
	if err != nil || w == nil {
		t.Fatalf("window after two rejections: %v, %v", w, err)
	}
	if r.retries != 0 || r.Done() {
		t.Fatalf("after two rejections: %d retries left, done=%v; want 0 and still in flight", r.retries, r.Done())
	}
	if got := r.Excluded(); !slices.Equal(got, rejecting) {
		t.Fatalf("excluded %v, want %v", got, rejecting)
	}

	// Mid-repair, a pod-scoped link burst arrives. The executed windows
	// must survive the snapshot; the remainder is replanned.
	snap := r.Outcome("mid")
	if len(snap.Pinned) != len(snap.Net.Links) {
		t.Fatalf("snapshot pinned ledger has %d flags for %d links", len(snap.Pinned), len(snap.Net.Links))
	}
	out2, err := faults.Compose(snap, faults.Scenario{BurstPods: 1, BurstLinkFraction: 0.5, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}

	for _, a := range hp.agents {
		a.RejectStage = true
	}
	r2, err := hp.c.PlanRepair(out2, SelfHealOptions{Seed: 4, BatchSize: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r2.pending {
		if slices.Contains(rejecting, p) {
			t.Errorf("successor plans to re-aim inherited excluded pod %d", p)
		}
	}
	for !r2.Done() {
		if _, err := r2.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	rep2 := r2.Report()
	if !rep2.Partial {
		t.Error("successor repair with no retry budget and rejecting agents must be Partial")
	}
	if len(rep2.Windows) != 0 {
		t.Errorf("rejecting agents committed %d windows", len(rep2.Windows))
	}
	if len(rep2.Excluded) != 0 {
		t.Errorf("no retry budget, yet pods were excluded: %v", rep2.Excluded)
	}
	if got := r2.Excluded(); !slices.Equal(got, rejecting) {
		t.Errorf("successor excludes %v, want the inherited %v", got, rejecting)
	}
	if rep2.Healed == nil {
		t.Fatal("partial repair has no Healed state")
	}
}

// TestRequireConnectedRefusesWindowOnDegradedFabric: a heavy uniform
// link failure partitions the live servers before any repair; the first
// dark window cannot restore connectivity (it only darkens further), so
// RequireConnected must refuse it and leave the repair Partial with
// nothing executed.
func TestRequireConnectedRefusesWindowOnDegradedFabric(t *testing.T) {
	k := 6
	hp := startHealPlant(t, k)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hp.c.Convert(ctx, uniformModes(k, core.ModeGlobalRandom)); err != nil {
		t.Fatal(err)
	}

	out, err := faults.Fail(hp.c.FlatTree().Net(), faults.Scenario{LinkFraction: 0.6, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	r, err := hp.c.PlanRepair(out, SelfHealOptions{Seed: 21, BatchSize: 1, RequireConnected: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for !r.Done() {
		if _, err := r.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	rep := r.Report()
	if rep.AddedLinks == 0 {
		t.Fatal("heavy link failure planned no rewiring; nothing to refuse")
	}
	if !rep.Partial {
		t.Error("refused window must leave the repair Partial")
	}
	if len(rep.Windows) != 0 {
		t.Errorf("RequireConnected let %d windows through a partitioning dark set", len(rep.Windows))
	}
	if rep.Healed == nil {
		t.Fatal("partial repair has no Healed state")
	}
	// No window committed, so no pod-owned addition activated; only
	// ownerless core-core additions (which need no re-aim window) may
	// appear. The repair must have stopped well short of the full plan.
	if len(rep.Healed.Links) >= len(rep.Degraded.Links)+rep.AddedLinks {
		t.Errorf("refused repair activated the full plan: %d links -> %d (+%d planned)",
			len(rep.Degraded.Links), len(rep.Healed.Links), rep.AddedLinks)
	}
}
