package experiments

import (
	"context"
	"errors"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"flattree/internal/faults"
)

func TestFaultsRecoveryDriver(t *testing.T) {
	cfg := smallCfg()
	cfg.Trials = 2
	// The shape assertions below are about connectivity and APL, which the
	// solver precision does not touch; a coarse epsilon keeps the test (and
	// its -race run) fast.
	cfg.Epsilon = 0.3
	tab, err := FaultsRecovery(context.Background(), cfg, 6, faults.Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	get := func(row, col int) float64 {
		v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
		if err != nil {
			t.Fatalf("cell (%d,%d) = %q: %v", row, col, tab.Rows[row][col], err)
		}
		return v
	}
	// Columns per topology: conn-fail apl-fail tput-fail conn-rec apl-rec
	// tput-rec; topologies fat-tree(1), flat-tree(7), random-graph(13).
	const (
		fat  = 1
		flat = 7
		rg   = 13
	)
	// Zero-failure row: everything connected, recovery a no-op, positive
	// throughput.
	for _, base := range []int{fat, flat, rg} {
		if get(0, base) != 1 || get(0, base+3) != 1 {
			t.Errorf("zero-failure connectivity: fail=%v rec=%v", tab.Rows[0][base], tab.Rows[0][base+3])
		}
		if get(0, base+2) <= 0 {
			t.Errorf("zero-failure throughput %v not positive", tab.Rows[0][base+2])
		}
		if get(0, base+1) != get(0, base+4) {
			t.Errorf("zero-failure recovery changed APL: %v -> %v", tab.Rows[0][base+1], tab.Rows[0][base+4])
		}
	}
	// The acceptance bar: at >= 10% link failure, recovery measurably
	// improves the convertible topologies' connectivity-or-APL while the
	// fat-tree (which cannot rewire) stays exactly where it fell.
	for row := 2; row < 5; row++ {
		for _, base := range []int{flat, rg} {
			connGain := get(row, base+3) - get(row, base)
			aplGain := get(row, base+1) - get(row, base+4)
			if connGain < 0 {
				t.Errorf("row %d col %d: recovery lost connectivity (%g)", row, base, connGain)
			}
			if connGain == 0 && aplGain <= 0 {
				t.Errorf("row %d col %d: recovery improved neither connectivity (%g) nor APL (%g)",
					row, base, connGain, aplGain)
			}
		}
		if get(row, fat) != get(row, fat+3) || tab.Rows[row][fat+1] != tab.Rows[row][fat+4] {
			t.Errorf("row %d: fat-tree recovered despite fixed cabling: %v", row, tab.Rows[row])
		}
	}
}

// TestFaultsRecoveryBaseScenarioStages exercises the correlated stages
// through the driver: a switch fraction plus converter deaths must still
// produce a well-formed, deterministic table. (Pod bursts are omitted here
// because the random-graph target has no pods and Fail rightly rejects a
// burst it cannot place; bursts are covered in the faults package tests.)
func TestFaultsRecoveryBaseScenarioStages(t *testing.T) {
	cfg := smallCfg()
	cfg.Epsilon = 0.3
	base := faults.Scenario{SwitchFraction: 0.05, ConverterFraction: 0.25}
	tab1, err := FaultsRecovery(context.Background(), cfg, 6, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 4
	tab2, err := FaultsRecovery(context.Background(), cfg, 6, base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab1.Rows {
		for j := range tab1.Rows[i] {
			if tab1.Rows[i][j] != tab2.Rows[i][j] {
				t.Fatalf("cell (%d,%d) differs across worker counts: %q vs %q",
					i, j, tab1.Rows[i][j], tab2.Rows[i][j])
			}
		}
	}
}

// cancelOnSecondPoll is a context that is live for its first Err() poll
// and cancelled from the second on, so a sweep starts its first cell and
// then finds itself cancelled at a known point, however fast the host.
type cancelOnSecondPoll struct{ polls atomic.Int32 }

func (*cancelOnSecondPoll) Deadline() (time.Time, bool) { return time.Time{}, false }
func (*cancelOnSecondPoll) Done() <-chan struct{}       { return nil }
func (*cancelOnSecondPoll) Value(any) any               { return nil }

func (c *cancelOnSecondPoll) Err() error {
	if c.polls.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// TestSweepCancellation pins the cancellation contract for the fanned-out
// drivers: cancelling mid-sweep returns ctx.Err(), with no table.
func TestSweepCancellation(t *testing.T) {
	cfg := smallCfg()
	cfg.Trials = 3
	cfg.Parallelism = 1
	ctx := &cancelOnSecondPoll{}
	tab, err := FaultsRecovery(ctx, cfg, 8, faults.Scenario{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tab != nil {
		t.Error("cancelled sweep still returned a table")
	}

	// Pre-cancelled contexts abort every driver immediately.
	pre, stop := context.WithCancel(context.Background())
	stop()
	if _, err := Fig5(pre, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("Fig5 pre-cancelled err = %v", err)
	}
	if _, _, err := Props(pre, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("Props pre-cancelled err = %v", err)
	}
	if _, err := FaultsRecovery(pre, cfg, 6, faults.Scenario{}); !errors.Is(err, context.Canceled) {
		t.Errorf("FaultsRecovery pre-cancelled err = %v", err)
	}
}
