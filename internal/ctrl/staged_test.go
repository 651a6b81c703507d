package ctrl

import (
	"context"
	"testing"
	"time"

	"flattree/internal/core"
)

// checkHardware fails unless every agent holds the model's configuration.
func checkHardware(t *testing.T, c *Controller, agents []*Agent) {
	t.Helper()
	want := c.FlatTree().Configs()
	for _, a := range agents {
		for id, cfg := range a.Configs() {
			if want[id] != cfg {
				t.Fatalf("pod %d converter %d: %s != %s", a.Pod(), id, cfg, want[id])
			}
		}
	}
}

// TestStagedConvertBatches: Clos → global-random at k = 8 takes more than
// one epoch, every committed window keeps the live servers connected, and
// the hardware ends on the model's configuration.
func TestStagedConvertBatches(t *testing.T) {
	k := 8
	c, agents, cleanup := startPlant(t, k)
	defer cleanup()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	reports, err := c.StagedConvert(ctx, uniformModes(k, core.ModeGlobalRandom))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) < 2 {
		t.Fatalf("got %d batch reports, want at least 2", len(reports))
	}
	for i, r := range reports {
		if !r.Connected {
			t.Errorf("batch %d transition disconnected: %+v", i, r)
		}
	}
	if c.Epoch() != uint64(len(reports)) {
		t.Errorf("epoch = %d, want one per batch (%d)", c.Epoch(), len(reports))
	}
	checkHardware(t, c, agents)
	for p := range k {
		if c.FlatTree().Mode(p) != core.ModeGlobalRandom {
			t.Errorf("pod %d: target mode not reached", p)
		}
	}
}

// TestStagedConvertRefusesPartition: at k = 8's default (m, n), switching
// every pod at once would partition the live servers, so the planner must
// refuse that window and split the conversion — here into pods 0..6, then
// pod 7 — rather than commit it.
func TestStagedConvertRefusesPartition(t *testing.T) {
	k := 8
	c, agents, cleanup := startPlant(t, k)
	defer cleanup()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	all := make([]int, k)
	for p := range all {
		all[p] = p
	}
	whole, err := c.FlatTree().AnalyzeTransition(all)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Connected {
		t.Fatal("the all-at-once window at k = 8 should partition; nothing to refuse")
	}
	firstWant, err := c.FlatTree().AnalyzeTransition(all[:k-1])
	if err != nil {
		t.Fatal(err)
	}

	reports, err := c.StagedConvert(ctx, uniformModes(k, core.ModeGlobalRandom))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0] != firstWant {
		t.Fatalf("batch reports %+v, want pods 0..%d (%+v) then pod %d", reports, k-2, firstWant, k-1)
	}
	checkHardware(t, c, agents)
}

// TestStagedConvertOneBatchWhenSafe: where switching every changed pod at
// once keeps the fabric connected (k = 4), the staged conversion is one
// epoch, the same as Convert.
func TestStagedConvertOneBatchWhenSafe(t *testing.T) {
	k := 4
	c, agents, cleanup := startPlant(t, k)
	defer cleanup()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reports, err := c.StagedConvert(ctx, uniformModes(k, core.ModeGlobalRandom))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || !reports[0].Connected || c.Epoch() != 1 {
		t.Fatalf("reports %+v at epoch %d, want one connected batch at epoch 1", reports, c.Epoch())
	}
	checkHardware(t, c, agents)
}

func TestStagedConvertNoChanges(t *testing.T) {
	k := 4
	c, _, cleanup := startPlant(t, k)
	defer cleanup()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reports, err := c.StagedConvert(ctx, uniformModes(k, core.ModeClos))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 0 {
		t.Errorf("no-op conversion produced %d reports", len(reports))
	}
}
