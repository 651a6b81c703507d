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
	if _, err := c.validate(nil, c.Config); err == nil {
		t.Error("4-port Side must be invalid")
	}
	c.Config = Local
	if _, err := c.validate(nil, c.Config); err != nil {
		t.Errorf("4-port Local should validate: %v", err)
	}
	c.Attach[PortSide1] = Endpoint{Node: 9, Conv: -1}
	if _, err := c.validate(nil, c.Config); err == nil {
		t.Error("4-port with side cable must be invalid")
	}
}

func TestMatchingCoversConfiguredPorts(t *testing.T) {
	for _, ports := range []int{4, 6} {
		// 4-port converters support neither Side nor Cross (§2.1).
		configs := []Config{Default, Local, Side, Cross}
		if ports == 4 {
			configs = configs[:2]
		}
		for _, cfg := range configs {
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

// fuzzPlant decodes a converter plant from fuzz bytes: a count of 1..6
// converters, each 4- or 6-port with a configuration in Default..Cross+1,
// device ports cabled to distinct devices (node 10·i+p), side ports paired
// reciprocally or left uncabled, an optional configs slice (nil, one per
// converter, or one too many), then four-byte mutations (converter, port,
// kind, argument) that uncable a port, recable it to its own device, or aim
// it at a converter port that may be out of range or not cabled back.
func fuzzPlant(data []byte) ([]Converter, []Config) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	device := func(i int, p Port) Endpoint { return Endpoint{Node: int32(10*i + int(p)), Conv: -1} }
	n := 1 + int(next())%6
	convs := make([]Converter, n)
	for i := range convs {
		b := next()
		c := Converter{ID: i, Ports: 4 + 2*int(b&1), Config: Config(b>>1) % (Cross + 2)}
		for p := range c.Attach {
			c.Attach[p] = NoEndpoint
		}
		for p := PortServer; p <= PortCore; p++ {
			c.Attach[p] = device(i, p)
		}
		convs[i] = c
	}
	var configs []Config
	switch next() % 4 {
	case 1:
		configs = make([]Config, n)
	case 2:
		configs = make([]Config, n+1)
	}
	for i := range configs {
		configs[i] = Config(next()) % (Cross + 2)
	}
	type end struct {
		conv int
		port Port
	}
	var open []end
	for i, c := range convs {
		if c.Ports == 6 {
			open = append(open, end{i, PortSide1}, end{i, PortSide2})
		}
	}
	for len(open) > 0 {
		a := open[0]
		open = open[1:]
		b := next()
		if b%3 == 0 || len(open) == 0 {
			continue
		}
		j := int(b/3) % len(open)
		peer := open[j]
		open = append(open[:j], open[j+1:]...)
		convs[a.conv].Attach[a.port] = Endpoint{Node: -1, Conv: int32(peer.conv), Port: peer.port}
		convs[peer.conv].Attach[peer.port] = Endpoint{Node: -1, Conv: int32(a.conv), Port: a.port}
	}
	for len(data) >= 4 {
		i, p, kind, arg := int(next())%n, Port(next()%NumPorts), next(), next()
		switch kind % 4 {
		case 0:
			convs[i].Attach[p] = NoEndpoint
		case 1:
			convs[i].Attach[p] = device(i, p)
		case 2:
			convs[i].Attach[p] = Endpoint{Node: -1, Conv: int32(arg % 12), Port: PortSide1 + Port(arg>>7)}
		case 3:
			convs[i].Attach[p] = Endpoint{Node: -1, Conv: int32(arg>>3) % int32(n), Port: Port(arg % 8)}
		}
	}
	return convs, configs
}

// wellFormed restates Splice's input contract: configs, if given, has one
// entry per converter; each converter sits at its ID, has 4 or 6 ports and
// a configuration legal for that count, and cables its four device ports
// to devices; each side port is uncabled or, on a 6-port converter, cabled
// to a different side port in the plant that is cabled back to it.
func wellFormed(convs []Converter, configs []Config) bool {
	if configs != nil && len(configs) != len(convs) {
		return false
	}
	for i, c := range convs {
		cfg := c.Config
		if configs != nil {
			cfg = configs[i]
		}
		if c.ID != i || !(c.Ports == 4 && cfg <= Local || c.Ports == 6 && cfg <= Cross) {
			return false
		}
		for p := PortServer; p <= PortCore; p++ {
			if c.Attach[p].Node < 0 {
				return false
			}
		}
		for _, p := range []Port{PortSide1, PortSide2} {
			e := c.Attach[p]
			if e == NoEndpoint {
				continue
			}
			if c.Ports != 6 || e.Node >= 0 || e.Conv < 0 || int(e.Conv) >= len(convs) ||
				e.Port != PortSide1 && e.Port != PortSide2 || int(e.Conv) == i && e.Port == p {
				return false
			}
			if back := convs[e.Conv].Attach[e.Port]; back.Node >= 0 || int(back.Conv) != i || back.Port != p {
				return false
			}
		}
	}
	return true
}

// FuzzSplice splices generated plants. Splice must not panic, must fail
// exactly when the plant is malformed, and otherwise must end every device
// cable in at most one link, never join a cable to itself, and reproduce
// the Clos links exactly when every converter is in Default. The corpus
// holds the two side cables that crashed the tracer before validate
// checked them: one aimed at converter 9 of a two-converter plant, one at
// port 7 of the peer.
func FuzzSplice(f *testing.F) {
	f.Add([]byte{1, 5, 5, 0, 4, 1})             // plantPair(Side, Side)
	f.Add([]byte{1, 3, 7, 0, 4, 1})             // plantPair(Local, Cross)
	f.Add([]byte{1, 1, 1, 0, 4, 1})             // plantPair(Default, Default)
	f.Add([]byte{5, 5, 7, 2, 0, 4, 3, 1, 2, 1}) // six converters, mixed blades
	f.Fuzz(func(t *testing.T, data []byte) {
		convs, configs := fuzzPlant(data)
		links, err := Splice(convs, configs)
		if ok := wellFormed(convs, configs); (err == nil) != ok {
			t.Fatalf("wellFormed = %v but Splice error = %v", ok, err)
		}
		if err != nil {
			return
		}
		use := make(map[int32]int)
		for _, l := range links {
			if l.A == l.B {
				t.Fatalf("link %v joins a cable to itself", l)
			}
			use[l.A]++
			use[l.B]++
		}
		for node, n := range use {
			if n > 1 {
				t.Fatalf("device cable %d ends in %d links", node, n)
			}
		}
		allDefault := true
		for i, c := range convs {
			cfg := c.Config
			if configs != nil {
				cfg = configs[i]
			}
			allDefault = allDefault && cfg == Default
		}
		if !allDefault {
			return
		}
		got := linkSet(links)
		if len(links) != 2*len(convs) || len(got) != len(links) {
			t.Fatalf("all-Default plant of %d converters gave %d links %v", len(convs), len(links), got)
		}
		for i := range convs {
			a, c, e, s := int32(10*i)+int32(PortAgg), int32(10*i)+int32(PortCore), int32(10*i)+int32(PortEdge), int32(10*i)
			if !got[[2]int32{a, c}] || !got[[2]int32{s, e}] {
				t.Fatalf("all-Default converter %d lacks its Clos links in %v", i, got)
			}
		}
	})
}
