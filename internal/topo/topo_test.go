package topo

import (
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder("t")
	sw := b.AddNode(EdgeSwitch, 0, 0, 2)
	s0 := b.AddNode(Server, 0, 0, 1)
	s1 := b.AddNode(Server, 0, 1, 1)
	b.AddLink(s0, sw, TagClos)
	b.AddLink(s1, sw, TagClos)
	nw := b.Build()
	if nw.HostSwitch(s0) != sw || nw.HostSwitch(s1) != sw {
		t.Error("host switches wrong")
	}
	if len(nw.HostedServers(sw)) != 2 {
		t.Error("hosted servers wrong")
	}
	if err := nw.Validate(); err != nil {
		t.Error(err)
	}
	if nw.PortsUsed(sw) != 2 {
		t.Error("port accounting wrong")
	}
}

func TestPortExhaustionPanics(t *testing.T) {
	b := NewBuilder("t")
	a := b.AddNode(EdgeSwitch, 0, 0, 1)
	c := b.AddNode(EdgeSwitch, 0, 1, 2)
	d := b.AddNode(EdgeSwitch, 0, 2, 2)
	b.AddLink(a, c, TagClos)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on port exhaustion")
		}
	}()
	b.AddLink(a, d, TagClos)
}

func TestSelfLinkPanics(t *testing.T) {
	b := NewBuilder("t")
	a := b.AddNode(EdgeSwitch, 0, 0, 4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on self link")
		}
	}()
	b.AddLink(a, a, TagClos)
}

func TestValidateDetachedServer(t *testing.T) {
	b := NewBuilder("t")
	b.AddNode(Server, 0, 0, 1)
	sw := b.AddNode(EdgeSwitch, 0, 0, 2)
	s1 := b.AddNode(Server, 0, 1, 1)
	b.AddLink(s1, sw, TagClos)
	if err := b.Build().Validate(); err == nil {
		t.Error("detached server should fail validation")
	}
}

func TestValidateServerToServer(t *testing.T) {
	b := NewBuilder("t")
	s0 := b.AddNode(Server, 0, 0, 1)
	s1 := b.AddNode(Server, 0, 1, 1)
	b.AddLink(s0, s1, TagClos)
	if err := b.Build().Validate(); err == nil {
		t.Error("server-to-server link should fail validation")
	}
}

func TestStatsAndKinds(t *testing.T) {
	b := NewBuilder("t")
	core := b.AddNode(CoreSwitch, -1, 0, 4)
	agg := b.AddNode(AggSwitch, 0, 0, 4)
	edge := b.AddNode(EdgeSwitch, 0, 0, 4)
	sv := b.AddNode(Server, 0, 0, 1)
	b.AddLink(core, agg, TagClos)
	b.AddLink(agg, edge, TagClos)
	b.AddLink(edge, sv, TagClos)
	nw := b.Build()
	st := nw.Stats()
	if st.Links != 3 || st.SwitchSwitchLinks != 2 || st.ServerLinks != 1 {
		t.Errorf("stats = %+v", st)
	}
	ka, kb := nw.LinkEndpointKinds(nw.Links[0])
	if ka != CoreSwitch || kb != AggSwitch {
		t.Errorf("endpoint kinds = %s,%s", ka, kb)
	}
	ka, kb = nw.LinkEndpointKinds(nw.Links[2])
	if ka != EdgeSwitch || kb != Server {
		t.Errorf("endpoint kinds = %s,%s", ka, kb)
	}
	if !CoreSwitch.IsSwitch() || Server.IsSwitch() {
		t.Error("IsSwitch wrong")
	}
}

func TestNodesOfOrdering(t *testing.T) {
	err := quick.Check(func(seed uint8) bool {
		b := NewBuilder("q")
		// Interleave node kinds; NodesOf must return ascending IDs.
		kinds := []Kind{Server, EdgeSwitch, AggSwitch, CoreSwitch}
		for i := 0; i < 20; i++ {
			b.AddNode(kinds[(int(seed)+i)%4], 0, i, 8)
		}
		nw := b.Build()
		for _, k := range kinds {
			prev := -1
			for _, id := range nw.NodesOf(k) {
				if id <= prev {
					return false
				}
				prev = id
			}
		}
		sw := nw.Switches()
		prev := -1
		for _, id := range sw {
			if id <= prev || nw.Nodes[id].Kind == Server {
				return false
			}
			prev = id
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	for _, k := range []Kind{Server, EdgeSwitch, AggSwitch, CoreSwitch, Kind(9)} {
		if k.String() == "" {
			t.Error("empty kind string")
		}
	}
	for _, tag := range []LinkTag{TagClos, TagConverter, TagSide, TagRandom, LinkTag(9)} {
		if tag.String() == "" {
			t.Error("empty tag string")
		}
	}
}

// TestBuildConsumesBuilder: the Network takes over the builder's tables, so
// a builder that stayed usable after Build would let an AddLink bump the
// "immutable" network's port use and — with reserved capacity — write into
// its Links. Every later call must panic instead, and the network must be
// untouched.
func TestBuildConsumesBuilder(t *testing.T) {
	b := NewBuilder("t")
	b.Reserve(3, 8) // slack: an append after Build would land in nw.Links' array
	sw0 := b.AddNode(EdgeSwitch, 0, 0, 4)
	sw1 := b.AddNode(EdgeSwitch, 0, 1, 4)
	b.AddLink(sw0, sw1, TagClos)
	nw := b.Build()

	for name, use := range map[string]func(){
		"AddLink": func() { b.AddLink(sw0, sw1, TagRandom) },
		"AddNode": func() { b.AddNode(Server, 0, 0, 1) },
		"Reserve": func() { b.Reserve(1, 1) },
		"Fork":    func() { b.Fork(1) },
		"Build":   func() { b.Build() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Build did not panic", name)
				}
			}()
			use()
		}()
	}
	if len(nw.Links) != 1 || nw.PortsUsed(sw0) != 1 || nw.PortsUsed(sw1) != 1 || nw.N() != 2 {
		t.Errorf("network changed after Build: %d links, ports %d/%d, %d nodes",
			len(nw.Links), nw.PortsUsed(sw0), nw.PortsUsed(sw1), nw.N())
	}
	if spare := nw.Links[:cap(nw.Links)]; len(spare) > 1 && spare[1] != (Link{}) {
		t.Errorf("a link was written past the network's Links: %+v", spare[1])
	}
}

// TestForkIsIndependent: forks start from the template's state, share
// nothing writable with it or with each other, and leave it forkable.
func TestForkIsIndependent(t *testing.T) {
	base := NewBuilder("t")
	sw0 := base.AddNode(EdgeSwitch, 0, 0, 2)
	sw1 := base.AddNode(AggSwitch, 0, 0, 2)
	sw2 := base.AddNode(CoreSwitch, -1, 0, 2)
	base.AddLink(sw0, sw1, TagClos)

	f1 := base.Fork(1)
	f1.AddLink(sw1, sw2, TagConverter)
	extra := f1.AddNode(Server, 0, 0, 1) // must not show up in base or f2
	f2 := base.Fork(2)
	f2.AddLink(sw0, sw2, TagSide)
	n1, n2 := f1.Build(), f2.Build()

	if n1.N() != 4 || n2.N() != 3 || base.NumNodes() != 3 {
		t.Errorf("node counts %d/%d/%d, want 4/3/3", n1.N(), n2.N(), base.NumNodes())
	}
	if n1.Nodes[extra].Kind != Server {
		t.Error("fork lost its own node")
	}
	if len(n1.Links) != 2 || n1.Links[1].Tag != TagConverter || len(n2.Links) != 2 || n2.Links[1].Tag != TagSide {
		t.Errorf("links: %+v / %+v", n1.Links, n2.Links)
	}
	if n1.Links[0] != n2.Links[0] {
		t.Error("template link moved between forks")
	}
	if base.FreePorts(sw0) != 1 || base.FreePorts(sw2) != 2 {
		t.Errorf("fork consumed the template's ports: %d, %d", base.FreePorts(sw0), base.FreePorts(sw2))
	}
	if n1.PortsUsed(sw2) != 1 || n2.PortsUsed(sw1) != 1 {
		t.Error("forks share port accounting")
	}
}
