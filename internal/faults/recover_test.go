package faults

import (
	"fmt"
	"math"
	"testing"

	"flattree/internal/core"
	"flattree/internal/fattree"
	"flattree/internal/topo"
)

func globalRandomFlatTree(t *testing.T, k int) *topo.Network {
	t.Helper()
	ft, err := core.Build(core.Params{K: k})
	if err != nil {
		t.Fatal(err)
	}
	if err := ft.SetUniformMode(core.ModeGlobalRandom); err != nil {
		t.Fatal(err)
	}
	return ft.Net()
}

func TestDuplicateSwitchesRejected(t *testing.T) {
	f, err := fattree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	sw := f.Net.Switches()[0]
	if _, err := Degrade(f.Net, Scenario{Switches: []int{sw, sw}}); err == nil {
		t.Error("duplicate switch IDs accepted")
	}
	if _, err := Degrade(f.Net, Scenario{Switches: []int{sw}}); err != nil {
		t.Errorf("single listing rejected: %v", err)
	}
}

func TestScenarioFractionValidation(t *testing.T) {
	f, err := fattree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Scenario{
		{SwitchFraction: -0.1},
		{SwitchFraction: 1},
		{BurstPods: 1, BurstLinkFraction: 1.5},
		{BurstPods: -1},
		{ConverterFraction: -2},
		// NaN compares false both ways, so only an in-range test rejects it.
		{LinkFraction: math.NaN()},
		{SwitchFraction: math.NaN()},
		{BurstPods: 1, BurstLinkFraction: math.NaN()},
		{ConverterFraction: math.NaN()},
	}
	for i, sc := range bad {
		if _, err := Degrade(f.Net, sc); err == nil {
			t.Errorf("scenario %d (%+v) accepted", i, sc)
		}
	}
}

func TestSwitchFractionFailsSwitches(t *testing.T) {
	f, err := fattree.New(8)
	if err != nil {
		t.Fatal(err)
	}
	total := len(f.Net.Switches())
	out, err := Fail(f.Net, Scenario{SwitchFraction: 0.25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := total / 4
	if out.FailedSwitches != want {
		t.Errorf("failed %d switches, want %d of %d", out.FailedSwitches, want, total)
	}
	if got := len(out.Net.Switches()); got != total-want {
		t.Errorf("surviving switches %d, want %d", got, total-want)
	}
	// Explicit switches count against the fraction's draw pool but not
	// its quota: both stack.
	sw := f.Net.Switches()[0]
	out2, err := Fail(f.Net, Scenario{SwitchFraction: 0.25, Switches: []int{sw}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if out2.FailedSwitches != want+1 {
		t.Errorf("explicit+fraction failed %d, want %d", out2.FailedSwitches, want+1)
	}
}

func TestBurstIsPodScoped(t *testing.T) {
	f, err := fattree.New(8)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Fail(f.Net, Scenario{BurstPods: 1, BurstLinkFraction: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if out.FailedLinks == 0 {
		t.Fatal("burst failed no links")
	}
	// Every freed port must sit on a switch in (or adjacent to) exactly
	// one pod: collect the pods of freed pod-resident switches.
	pods := make(map[int]bool)
	for v, tags := range out.Freed {
		if len(tags) == 0 {
			continue
		}
		if p := out.Net.Nodes[v].Pod; p >= 0 {
			pods[p] = true
		}
	}
	if len(pods) != 1 {
		t.Errorf("burst damage touches pods %v, want exactly one", pods)
	}
	if _, err := Fail(f.Net, Scenario{BurstPods: 100, BurstLinkFraction: 0.5}); err == nil {
		t.Error("burst across more pods than exist accepted")
	}
}

func TestConverterFailurePinsLinks(t *testing.T) {
	nw := globalRandomFlatTree(t, 8)
	out, err := Fail(nw, Scenario{ConverterFraction: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.PinnedLinks == 0 {
		t.Fatal("no links pinned")
	}
	if len(out.Net.Links) != len(nw.Links) {
		t.Errorf("converter failure removed links: %d -> %d", len(nw.Links), len(out.Net.Links))
	}
	for id, pinned := range out.Pinned {
		if !pinned {
			continue
		}
		if tag := out.Net.Links[id].Tag; tag != topo.TagConverter && tag != topo.TagSide {
			t.Errorf("pinned link %d has tag %v", id, tag)
		}
	}
	// Pinned links must survive a recovery pass untouched.
	rec, rep, err := Recover(out, RecoverOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FreedPorts != 0 {
		t.Errorf("pinning alone freed %d ports", rep.FreedPorts)
	}
	if len(rec.Links) != len(out.Net.Links) {
		t.Errorf("recovery changed a failure-free network: %d -> %d links", len(out.Net.Links), len(rec.Links))
	}
}

func TestRecoverImprovesDegradedRandomGraph(t *testing.T) {
	nw := globalRandomFlatTree(t, 8)
	out, err := Fail(nw, Scenario{LinkFraction: 0.2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	before, err := Analyze(out.Net)
	if err != nil {
		t.Fatal(err)
	}
	rec, rep, err := Recover(out, RecoverOptions{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	after, err := Analyze(rec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AddedLinks == 0 {
		t.Fatal("recovery added no links")
	}
	if after.SwitchLinks <= before.SwitchLinks {
		t.Errorf("recovery did not add capacity: %d -> %d links", before.SwitchLinks, after.SwitchLinks)
	}
	if after.APL >= before.APL {
		t.Errorf("recovery did not shorten paths: APL %.3f -> %.3f", before.APL, after.APL)
	}
	if after.LargestComponentFrac < before.LargestComponentFrac {
		t.Errorf("recovery shrank the largest component: %.3f -> %.3f",
			before.LargestComponentFrac, after.LargestComponentFrac)
	}
	// Port budgets must stay respected in the rebuilt network (Builder
	// panics otherwise, but assert the accounting explicitly).
	for _, n := range rec.Nodes {
		if used := rec.PortsUsed(n.ID); used > n.Ports {
			t.Errorf("node %d uses %d of %d ports", n.ID, used, n.Ports)
		}
	}
}

func TestRecoverDeterministic(t *testing.T) {
	nw := globalRandomFlatTree(t, 8)
	wiring := func() string {
		out, err := Fail(nw, Scenario{LinkFraction: 0.15, SwitchFraction: 0.05, Seed: 33})
		if err != nil {
			t.Fatal(err)
		}
		rec, _, err := Recover(out, RecoverOptions{Seed: 34})
		if err != nil {
			t.Fatal(err)
		}
		s := ""
		for _, l := range rec.Links {
			s += fmt.Sprintf("%d-%d:%d;", l.A, l.B, l.Tag)
		}
		return s
	}
	if w1, w2 := wiring(), wiring(); w1 != w2 {
		t.Error("same seeds produced different recovery wiring")
	}
}

func TestRecoverRewirableNoneIsNoOp(t *testing.T) {
	f, err := fattree.New(8)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Fail(f.Net, Scenario{LinkFraction: 0.2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	rec, rep, err := Recover(out, RecoverOptions{Seed: 22, Rewirable: RewirableNone})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FreedPorts != 0 || rep.AddedLinks != 0 || rep.BrokenLinks != 0 {
		t.Errorf("static topology recovered anyway: %+v", rep)
	}
	if len(rec.Links) != len(out.Net.Links) {
		t.Errorf("no-op recovery changed the link count")
	}
	// A fat-tree's links are all TagClos, so even the default policy
	// finds nothing to rewire — the §5 asymmetry.
	_, rep2, err := Recover(out, RecoverOptions{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.AddedLinks != 0 {
		t.Errorf("default policy rewired a fat-tree: %+v", rep2)
	}
}

// TestRecoverReturnsInputWhenNothingFreed pins the identity contract that
// lets a caller reuse the degraded network's measurements: with fewer than
// two rewirable ports freed, Recover returns out.Net itself; otherwise it
// returns a rebuilt copy.
func TestRecoverReturnsInputWhenNothingFreed(t *testing.T) {
	f, err := fattree.New(8)
	if err != nil {
		t.Fatal(err)
	}
	flat := globalRandomFlatTree(t, 8)
	cases := []struct {
		name      string
		nw        *topo.Network
		frac      float64
		rewirable func(topo.LinkTag) bool
		same      bool
	}{
		{"fat-tree, fixed cabling", f.Net, 0.2, RewirableNone, true},
		{"flat-tree, no failure", flat, 0, DefaultRewirable, true},
		{"flat-tree, failed links", flat, 0.2, DefaultRewirable, false},
	}
	for _, c := range cases {
		out, err := Fail(c.nw, Scenario{LinkFraction: c.frac, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		rec, rep, err := Recover(out, RecoverOptions{Seed: 22, Rewirable: c.rewirable})
		if err != nil {
			t.Fatal(err)
		}
		if same := rec == out.Net; same != c.same {
			t.Errorf("%s: Recover returned the input = %v, want %v (%+v)", c.name, same, c.same, rep)
		}
	}
}
