package topo

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteDOT renders the network in Graphviz DOT form: switches as boxes
// colored by layer, servers as dots, links styled by provenance tag. The
// output of `flatsim export -format dot | dot -Tsvg` is the closest thing
// to the paper's Figure 2 this repository produces.
func (nw *Network) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "graph %q {\n", nw.Name)
	fmt.Fprintln(bw, "  layout=neato; overlap=false; splines=true;")
	fmt.Fprintln(bw, "  node [fontsize=8];")
	for _, n := range nw.Nodes {
		var attrs string
		switch n.Kind {
		case CoreSwitch:
			attrs = "shape=box style=filled fillcolor=\"#b3c6ff\""
		case AggSwitch:
			attrs = "shape=box style=filled fillcolor=\"#c6e2c6\""
		case EdgeSwitch:
			attrs = "shape=box style=filled fillcolor=\"#f2d9b3\""
		case Server:
			attrs = "shape=point width=0.06"
		}
		label := fmt.Sprintf("%s%d", n.Kind, n.Index)
		if n.Pod >= 0 && n.Kind.IsSwitch() {
			label = fmt.Sprintf("p%d/%s%d", n.Pod, n.Kind, n.Index)
		}
		fmt.Fprintf(bw, "  n%d [label=%q %s];\n", n.ID, label, attrs)
	}
	for _, l := range nw.Links {
		style := ""
		switch l.Tag {
		case TagConverter:
			style = " [color=\"#cc4444\"]"
		case TagSide:
			style = " [color=\"#cc4444\" style=dashed]"
		case TagRandom:
			style = " [color=\"#888888\"]"
		}
		fmt.Fprintf(bw, "  n%d -- n%d%s;\n", l.A, l.B, style)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// jsonNetwork is the stable JSON wire form of a Network.
type jsonNetwork struct {
	Name  string     `json:"name"`
	Nodes []jsonNode `json:"nodes"`
	Links []jsonLink `json:"links"`
}

type jsonNode struct {
	ID    int    `json:"id"`
	Kind  string `json:"kind"`
	Pod   int    `json:"pod"`
	Index int    `json:"index"`
	Ports int    `json:"ports"`
}

type jsonLink struct {
	A   int    `json:"a"`
	B   int    `json:"b"`
	Tag string `json:"tag"`
}

// WriteJSON serializes the network for external tooling.
func (nw *Network) WriteJSON(w io.Writer) error {
	out := jsonNetwork{Name: nw.Name}
	for _, n := range nw.Nodes {
		out.Nodes = append(out.Nodes, jsonNode{
			ID: n.ID, Kind: n.Kind.String(), Pod: n.Pod, Index: n.Index, Ports: n.Ports,
		})
	}
	for _, l := range nw.Links {
		out.Links = append(out.Links, jsonLink{A: l.A, B: l.B, Tag: l.Tag.String()})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
