package topo

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sampleNet() *Network {
	b := NewBuilder("sample")
	c := b.AddNode(CoreSwitch, -1, 0, 4)
	a := b.AddNode(AggSwitch, 0, 0, 4)
	e := b.AddNode(EdgeSwitch, 0, 0, 4)
	s := b.AddNode(Server, 0, 0, 1)
	b.AddLink(c, a, TagClos)
	b.AddLink(a, e, TagClos)
	b.AddLink(e, s, TagConverter)
	b.AddLink(c, e, TagSide)
	return b.Build()
}

func TestWriteDOT(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleNet().WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"graph \"sample\"", "n0 --", "style=dashed", "shape=point", "p0/agg0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
}

// TestJSONRoundTrip decodes WriteJSON's output into the wire form and
// compares every node and link with the network it came from.
func TestJSONRoundTrip(t *testing.T) {
	nw := sampleNet()
	var buf bytes.Buffer
	if err := nw.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got jsonNetwork
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != nw.Name || len(got.Nodes) != nw.N() || len(got.Links) != len(nw.Links) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i, n := range nw.Nodes {
		want := jsonNode{ID: n.ID, Kind: n.Kind.String(), Pod: n.Pod, Index: n.Index, Ports: n.Ports}
		if got.Nodes[i] != want {
			t.Errorf("node %d: %+v != %+v", i, got.Nodes[i], want)
		}
	}
	for i, l := range nw.Links {
		want := jsonLink{A: l.A, B: l.B, Tag: l.Tag.String()}
		if got.Links[i] != want {
			t.Errorf("link %d: %+v != %+v", i, got.Links[i], want)
		}
	}
}
