package faults

import (
	"reflect"
	"testing"

	"flattree/internal/fattree"
	"flattree/internal/topo"
)

// TestComposeEqualsFailOnFreshNetwork: composing onto an undamaged outcome
// is exactly Fail.
func TestComposeEqualsFailOnFreshNetwork(t *testing.T) {
	nw := globalRandomFlatTree(t, 6)
	sc := Scenario{LinkFraction: 0.1, Seed: 5}
	direct, err := Fail(nw, sc)
	if err != nil {
		t.Fatal(err)
	}
	composed, err := Compose(&Outcome{Net: nw}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Net.N() != composed.Net.N() || len(direct.Net.Links) != len(composed.Net.Links) {
		t.Fatalf("compose(%d nodes, %d links) != fail(%d nodes, %d links)",
			composed.Net.N(), len(composed.Net.Links), direct.Net.N(), len(direct.Net.Links))
	}
	if direct.FailedLinks != composed.FailedLinks || direct.FailedSwitches != composed.FailedSwitches {
		t.Errorf("damage counts differ: fail=%d/%d compose=%d/%d",
			direct.FailedSwitches, direct.FailedLinks, composed.FailedSwitches, composed.FailedLinks)
	}
}

// TestComposeAccumulatesDamage: a second episode composed onto the first
// sees the already-degraded network, accumulates the damage counters, and
// carries the first episode's freed ports forward on surviving switches.
func TestComposeAccumulatesDamage(t *testing.T) {
	nw := globalRandomFlatTree(t, 6)
	first, err := Fail(nw, Scenario{LinkFraction: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if first.FailedLinks == 0 {
		t.Fatal("first episode failed no links; test needs damage")
	}
	freedBefore := 0
	for _, tags := range first.Freed {
		freedBefore += len(tags)
	}
	if freedBefore == 0 {
		t.Fatal("first episode freed no ports")
	}

	second, err := Compose(first, Scenario{LinkFraction: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if second.FailedLinks <= first.FailedLinks {
		t.Errorf("FailedLinks did not accumulate: %d -> %d", first.FailedLinks, second.FailedLinks)
	}
	if len(second.Net.Links) >= len(first.Net.Links) {
		t.Errorf("links did not drop: %d -> %d", len(first.Net.Links), len(second.Net.Links))
	}
	freedAfter := 0
	for _, tags := range second.Freed {
		freedAfter += len(tags)
	}
	if freedAfter <= freedBefore {
		t.Errorf("freed ports did not carry forward and grow: %d -> %d", freedBefore, freedAfter)
	}
	// No switches died, so node IDs are stable and the carried tags must
	// lead each node's list.
	for v, tags := range first.Freed {
		if len(tags) == 0 {
			continue
		}
		got := second.Freed[v]
		if len(got) < len(tags) {
			t.Fatalf("node %d lost carried freed ports: had %v, now %v", v, tags, got)
		}
		for i, tag := range tags {
			if got[i] != tag {
				t.Fatalf("node %d carried tags reordered: had %v, now %v", v, tags, got)
			}
		}
	}
}

// TestComposeCarriesPinsAcrossEpisodes: links pinned by a converter death
// in episode 1 stay pinned after episode 2 rebuilds the network, and a
// pinned link that dies frees no ports.
func TestComposeCarriesPinsAcrossEpisodes(t *testing.T) {
	nw := globalRandomFlatTree(t, 6)
	first, err := Fail(nw, Scenario{ConverterFraction: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if first.PinnedLinks == 0 {
		t.Fatal("no links pinned; test needs a dead converter block")
	}

	// Collect the endpoint pairs of pinned links so they can be found in
	// the recomposed network (IDs shift when switches die).
	type pair struct{ a, b int }
	key := func(n *topo.Network, a, b int) pair {
		ka := pair{n.Nodes[a].Pod, n.Nodes[a].Index}
		kb := pair{n.Nodes[b].Pod, n.Nodes[b].Index}
		if kb.a < ka.a || (kb.a == ka.a && kb.b < ka.b) {
			ka, kb = kb, ka
		}
		return pair{ka.a*1_000_000 + ka.b, kb.a*1_000_000 + kb.b}
	}
	pinnedPairs := make(map[pair]bool)
	for id, pin := range first.Pinned {
		if pin {
			l := first.Net.Links[id]
			pinnedPairs[key(first.Net, l.A, l.B)] = true
		}
	}

	second, err := Compose(first, Scenario{SwitchFraction: 0.1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	survivingPinned := 0
	for id, pin := range second.Pinned {
		if !pin {
			continue
		}
		survivingPinned++
		l := second.Net.Links[id]
		if !pinnedPairs[key(second.Net, l.A, l.B)] {
			t.Errorf("link %d pinned in episode 2 was not pinned in episode 1", id)
		}
	}
	if survivingPinned == 0 {
		t.Error("no pinned link survived episode 2; pins were dropped")
	}
	if second.PinnedLinks != survivingPinned {
		t.Errorf("PinnedLinks = %d, counted %d", second.PinnedLinks, survivingPinned)
	}

	// A pinned link that is killed must not free its ports: fail every
	// link, then check no freed tag belongs to a pinned pair.
	third, err := Compose(first, Scenario{LinkFraction: 0.99, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	freed := 0
	for _, tags := range third.Freed {
		freed += len(tags)
	}
	// Every unpinned dead switch-switch link frees two ports; pinned dead
	// links free none, so the total must be strictly less than twice the
	// number of dead links.
	if newDead := third.FailedLinks - first.FailedLinks; freed >= 2*newDead {
		t.Errorf("freed %d ports for %d dead links; pinned deaths must strand their ports", freed, newDead)
	}
}

// TestComposeValidatesBookkeeping: malformed outcomes are rejected rather
// than silently misindexed.
func TestComposeValidatesBookkeeping(t *testing.T) {
	nw := globalRandomFlatTree(t, 4)
	if _, err := Compose(&Outcome{Net: nw, Pinned: make([]bool, 1)}, Scenario{}); err == nil {
		t.Error("short Pinned slice accepted")
	}
	if _, err := Compose(&Outcome{Net: nw, Freed: make([][]topo.LinkTag, 1)}, Scenario{}); err == nil {
		t.Error("short Freed slice accepted")
	}
	if _, err := Compose(&Outcome{Net: nw}, Scenario{LinkFraction: -1}); err == nil {
		t.Error("invalid scenario accepted")
	}
}

// TestComposeDeterministic: the same episode chain replays byte-identically
// from its seeds.
func TestComposeDeterministic(t *testing.T) {
	nw := globalRandomFlatTree(t, 6)
	chain := func() *Outcome {
		out, err := Fail(nw, Scenario{LinkFraction: 0.1, ConverterFraction: 0.3, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		out, err = Compose(out, Scenario{BurstPods: 1, BurstLinkFraction: 0.4, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		out, err = Compose(out, Scenario{SwitchFraction: 0.1, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := chain(), chain()
	if a.Net.N() != b.Net.N() || len(a.Net.Links) != len(b.Net.Links) ||
		a.FailedLinks != b.FailedLinks || a.FailedSwitches != b.FailedSwitches ||
		a.PinnedLinks != b.PinnedLinks {
		t.Fatalf("chain not deterministic: %+v vs %+v", a, b)
	}
	for i := range a.Net.Links {
		la, lb := a.Net.Links[i], b.Net.Links[i]
		if la.A != lb.A || la.B != lb.B || la.Tag != lb.Tag {
			t.Fatalf("link %d differs: %+v vs %+v", i, la, lb)
		}
	}
}

// TestComposedDamageComponents: on networks damaged by a chain of composed
// episodes — links, switches and pod bursts, until they split and shed
// servers — the link-list labelling behind LargestComponent equals the
// node-level graph's, labels and count.
func TestComposedDamageComponents(t *testing.T) {
	episodes := []Scenario{
		{LinkFraction: 0.2, Seed: 1},
		{SwitchFraction: 0.15, Seed: 2},
		{BurstPods: 1, BurstLinkFraction: 0.6, Seed: 3},
		{LinkFraction: 0.4, SwitchFraction: 0.1, Seed: 4},
	}
	split := 0
	for k := 4; k <= 8; k += 2 {
		f, err := fattree.New(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			nw   *topo.Network
		}{{"fat-tree", f.Net}, {"flat-tree", globalRandomFlatTree(t, k)}} {
			out := &Outcome{Net: c.nw}
			for i, sc := range episodes {
				if out, err = Compose(out, sc); err != nil {
					t.Fatal(err)
				}
				label, count := out.Net.Components()
				wantLabel, wantCount := out.Net.Graph().Components()
				if count != wantCount || !reflect.DeepEqual(label, wantLabel) {
					t.Errorf("%s k=%d after episode %d: %d components, the node graph has %d (or labels differ)",
						c.name, k, i+1, count, wantCount)
				}
				if count > 1 {
					split++
				}
			}
		}
	}
	if split == 0 {
		t.Error("no composed network split; the chain needs more damage")
	}
}
