package converter

import (
	"testing"
	"testing/quick"
)

// plantPair builds two 6-port converters cabled to distinct devices with
// straight side cables, the §2.5 inter-pod arrangement. Device numbering:
// converter 0: S=0 E=1 A=2 C=3; converter 1: S=10 E=11 A=12 C=13.
func plantPair(cfg0, cfg1 Config) []Converter {
	mk := func(id int, base int32, peer int32, cfg Config) Converter {
		c := Converter{ID: id, Ports: 6, Config: cfg}
		for p := range c.Attach {
			c.Attach[p] = NoEndpoint
		}
		c.Attach[PortServer] = Endpoint{Node: base, Conv: -1}
		c.Attach[PortEdge] = Endpoint{Node: base + 1, Conv: -1}
		c.Attach[PortAgg] = Endpoint{Node: base + 2, Conv: -1}
		c.Attach[PortCore] = Endpoint{Node: base + 3, Conv: -1}
		c.Attach[PortSide1] = Endpoint{Node: -1, Conv: peer, Port: PortSide1}
		c.Attach[PortSide2] = Endpoint{Node: -1, Conv: peer, Port: PortSide2}
		return c
	}
	return []Converter{mk(0, 0, 1, cfg0), mk(1, 10, 0, cfg1)}
}

func linkSet(links []EffectiveLink) map[[2]int32]bool {
	s := make(map[[2]int32]bool)
	for _, l := range links {
		a, b := l.A, l.B
		if a > b {
			a, b = b, a
		}
		s[[2]int32{a, b}] = true
	}
	return s
}

func TestDefaultReproducesClos(t *testing.T) {
	links, err := Splice(plantPair(Default, Default), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := linkSet(links)
	want := [][2]int32{{2, 3}, {0, 1}, {12, 13}, {10, 11}} // A-C, E-S per converter
	if len(got) != len(want) {
		t.Fatalf("got %d links %v, want %d", len(got), got, len(want))
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing link %v", w)
		}
	}
	for _, l := range links {
		if l.ViaSide {
			t.Errorf("default config produced a side link %v", l)
		}
	}
}

func TestLocalRelocatesServer(t *testing.T) {
	links, err := Splice(plantPair(Local, Default), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := linkSet(links)
	// Converter 0 local: A-S (2-0) and C-E (1-3).
	if !got[[2]int32{0, 2}] || !got[[2]int32{1, 3}] {
		t.Errorf("local links missing: %v", got)
	}
}

func TestSideSidePeerWise(t *testing.T) {
	links, err := Splice(plantPair(Side, Side), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := linkSet(links)
	// C-S locally on both (0-3, 10-13), E-E' (1-11), A-A' (2-12).
	for _, w := range [][2]int32{{0, 3}, {10, 13}, {1, 11}, {2, 12}} {
		if !got[w] {
			t.Errorf("missing %v in %v", w, got)
		}
	}
	var sideLinks int
	for _, l := range links {
		if l.ViaSide {
			sideLinks++
		}
	}
	if sideLinks != 2 {
		t.Errorf("got %d side links, want 2", sideLinks)
	}
}

func TestCrossSideCrossed(t *testing.T) {
	// One end Cross, other Side: E-A' and A-E'.
	links, err := Splice(plantPair(Cross, Side), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := linkSet(links)
	for _, w := range [][2]int32{{0, 3}, {10, 13}, {1, 12}, {2, 11}} {
		if !got[w] {
			t.Errorf("missing %v in %v", w, got)
		}
	}
}

func TestCrossCrossCancelsToPeerWise(t *testing.T) {
	// Both ends Cross: the two swaps cancel — documented pitfall that
	// core.ConfigFor works around by crossing only one end.
	links, err := Splice(plantPair(Cross, Cross), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := linkSet(links)
	if !got[[2]int32{1, 11}] || !got[[2]int32{2, 12}] {
		t.Errorf("double cross should be peer-wise: %v", got)
	}
}

func TestSideWithoutPeerWastesLink(t *testing.T) {
	convs := plantPair(Side, Side)
	// Cut converter 0's side cables (no peer).
	convs[0].Attach[PortSide1] = NoEndpoint
	convs[0].Attach[PortSide2] = NoEndpoint
	convs[1].Attach[PortSide1] = NoEndpoint
	convs[1].Attach[PortSide2] = NoEndpoint
	links, err := Splice(convs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := linkSet(links)
	// Only the C-S links survive; E and A dangle.
	if len(got) != 2 || !got[[2]int32{0, 3}] || !got[[2]int32{10, 13}] {
		t.Errorf("links = %v, want only the two C-S links", got)
	}
}

func TestFourPortValidation(t *testing.T) {
	c := Converter{ID: 0, Ports: 4, Config: Side}
	for p := range c.Attach {
		c.Attach[p] = NoEndpoint
	}
	c.Attach[PortServer] = Endpoint{Node: 0, Conv: -1}
	c.Attach[PortEdge] = Endpoint{Node: 1, Conv: -1}
	c.Attach[PortAgg] = Endpoint{Node: 2, Conv: -1}
	c.Attach[PortCore] = Endpoint{Node: 3, Conv: -1}
	if err := c.Validate(); err == nil {
		t.Error("4-port Side must be invalid")
	}
	c.Config = Local
	if err := c.Validate(); err != nil {
		t.Errorf("4-port Local should validate: %v", err)
	}
	c.Attach[PortSide1] = Endpoint{Node: 9, Conv: -1}
	if err := c.Validate(); err == nil {
		t.Error("4-port with side cable must be invalid")
	}
}

func TestMatchingCoversConfiguredPorts(t *testing.T) {
	for _, ports := range []int{4, 6} {
		for _, cfg := range ValidConfigs(ports) {
			pairs, err := Matching(ports, cfg)
			if err != nil {
				t.Fatalf("Matching(%d,%s): %v", ports, cfg, err)
			}
			used := make(map[Port]int)
			for _, pr := range pairs {
				used[pr[0]]++
				used[pr[1]]++
			}
			for p, n := range used {
				if n != 1 {
					t.Errorf("%d-port %s: port %s matched %d times", ports, cfg, p, n)
				}
			}
			// Device ports S,E,A,C always participate.
			for _, p := range []Port{PortServer, PortEdge, PortAgg, PortCore} {
				if used[p] != 1 {
					t.Errorf("%d-port %s: device port %s unmatched", ports, cfg, p)
				}
			}
		}
	}
	if _, err := Matching(4, Cross); err == nil {
		t.Error("Matching(4, Cross) should fail")
	}
	if _, err := Matching(5, Default); err == nil {
		t.Error("Matching(5, ...) should fail")
	}
}

// TestSpliceConservesDevicePorts: every device cable produces at most one
// effective link endpoint, and link endpoints are exactly the devices whose
// chains complete — for any configuration combo on a pair.
func TestSpliceConservesDevicePorts(t *testing.T) {
	cfgs := []Config{Default, Local, Side, Cross}
	err := quick.Check(func(a, b uint8) bool {
		convs := plantPair(cfgs[a%4], cfgs[b%4])
		links, err := Splice(convs, nil)
		if err != nil {
			return false
		}
		// Count endpoint usage per device.
		use := make(map[int32]int)
		for _, l := range links {
			use[l.A]++
			use[l.B]++
		}
		for _, n := range use {
			if n != 1 {
				return false
			}
		}
		// Between 2 and 4 links for a cabled pair (8 device cables, some
		// possibly dark).
		return len(links) >= 2 && len(links) <= 4
	}, &quick.Config{MaxCount: 16})
	if err != nil {
		t.Error(err)
	}
}

func TestSpliceRejectsBadID(t *testing.T) {
	convs := plantPair(Default, Default)
	convs[1].ID = 7
	if _, err := Splice(convs, nil); err == nil {
		t.Error("mismatched ID should error")
	}
}
