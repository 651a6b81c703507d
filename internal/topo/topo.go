// Package topo models data-center networks at the level the flat-tree paper
// evaluates them: typed nodes (core, aggregation, and edge switches, plus
// servers), undirected unit-capacity links with provenance tags, pods, and
// strict port accounting. Every topology in this repository — fat-tree,
// Jellyfish random graph, two-stage random graph, and flat-tree in any of
// its operation modes — builds a *topo.Network, and every metric and solver
// consumes one.
package topo

import (
	"fmt"
	"slices"

	"flattree/internal/graph"
)

// Kind classifies a node.
type Kind uint8

const (
	// Server is an end host with a single network port.
	Server Kind = iota
	// EdgeSwitch is a top-of-rack (edge-layer) switch.
	EdgeSwitch
	// AggSwitch is an aggregation-layer switch.
	AggSwitch
	// CoreSwitch is a core-layer switch.
	CoreSwitch

	numKinds
)

// String returns a short human-readable kind name.
func (k Kind) String() string {
	switch k {
	case Server:
		return "server"
	case EdgeSwitch:
		return "edge"
	case AggSwitch:
		return "agg"
	case CoreSwitch:
		return "core"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsSwitch reports whether the kind is any switch layer.
func (k Kind) IsSwitch() bool { return k != Server }

// LinkTag records how a link came to exist. Tags drive the paper's
// Property 2 check (per-type link counts at core switches) and several
// ablation benchmarks; they do not affect routing or capacity.
type LinkTag uint8

const (
	// TagClos marks an original Clos link (edge-server, edge-agg, agg-core)
	// that is physically present and not spliced through a converter.
	TagClos LinkTag = iota
	// TagConverter marks an effective link created by a converter switch
	// configuration inside one pod (e.g. agg-server or core-edge splices).
	TagConverter
	// TagSide marks an effective inter-pod link created through the side
	// connectors of paired 6-port converters.
	TagSide
	// TagRandom marks a link placed by a randomized construction
	// (Jellyfish or two-stage random graph).
	TagRandom
)

// String returns a short tag name.
func (t LinkTag) String() string {
	switch t {
	case TagClos:
		return "clos"
	case TagConverter:
		return "conv"
	case TagSide:
		return "side"
	case TagRandom:
		return "rand"
	}
	return fmt.Sprintf("tag(%d)", uint8(t))
}

// Node is a device in the network.
type Node struct {
	ID   int
	Kind Kind
	// Pod is the pod index for pod-resident switches and for servers (a
	// server keeps its home pod even when a converter relocates its uplink
	// to a core switch). Core switches and pod-less topologies use -1.
	Pod int
	// Index is the node's index within its (kind, pod) group; for servers
	// it is the global server index.
	Index int
	// Ports is the port budget used for accounting (switch radix; 1 for
	// servers).
	Ports int
}

// Link is an undirected unit-capacity link.
type Link struct {
	ID  int
	A   int
	B   int
	Tag LinkTag
}

// Network is an immutable data-center network. Build one with a Builder.
// Networks forked from one Builder (every effective network of a flat-tree)
// share their Nodes table, so Nodes, like every slice a Network hands out,
// must not be modified.
type Network struct {
	Name  string
	Nodes []Node
	Links []Link

	servers  []int   // every server ID, ascending
	switches []int   // every switch ID, ascending
	hostOf   []int32 // server ID -> attachment switch ID (-1 if detached)
	portUse  []int
}

// Graph builds the node-level graph, servers included: node v is Nodes[v],
// edge i is Links[i], and every adjacency list is sorted by (peer, edge).
// The network keeps no graph, so each call allocates a fresh one, sized
// by the node count plus twice the link count. Metrics and solvers read
// what they need from Links instead: Components, SwitchGraph, EntrySwitch.
func (nw *Network) Graph() *graph.Graph {
	g := graph.NewWithDegrees(nw.portUse)
	for _, l := range nw.Links {
		g.AddEdge(l.A, l.B)
	}
	g.SortAdjacency()
	return g
}

// LinkEnds returns the endpoints of link i. It presents Links as the edge
// list graph.LabelComponents and graph.NewHopGraph read.
func (nw *Network) LinkEnds(i int) (a, b int) { return nw.Links[i].A, nw.Links[i].B }

// Components labels every node with its connected component over Links:
// label[v] is v's component, numbered from 0 in order of each component's
// lowest node, and a node with no link (a detached server, an unused
// switch) is a component of its own. It returns the labels and the number
// of components, the same as Graph().Components() without building the
// graph.
func (nw *Network) Components() (label []int32, count int) {
	return graph.LabelComponents(len(nw.Nodes), len(nw.Links), nw.LinkEnds)
}

// N returns the total node count.
func (nw *Network) N() int { return len(nw.Nodes) }

// Servers returns all server IDs, ascending.
func (nw *Network) Servers() []int { return nw.servers }

// Switches returns all switch IDs (edge, agg, core), ascending. The caller
// must not modify the slice.
func (nw *Network) Switches() []int { return nw.switches }

// HostSwitch returns the switch a server attaches to, or -1 if the server is
// detached (which Validate treats as an error).
func (nw *Network) HostSwitch(server int) int { return int(nw.hostOf[server]) }

// IsSwitchLink reports whether l joins two switches: a link of the switch
// fabric rather than a server's access link.
func (nw *Network) IsSwitchLink(l Link) bool {
	return nw.Nodes[l.A].Kind.IsSwitch() && nw.Nodes[l.B].Kind.IsSwitch()
}

// EntrySwitch resolves node v to the switch its traffic enters the fabric
// at: a switch stands for itself, a server for the switch it attaches to.
// An out-of-range node or a detached server is an error.
func (nw *Network) EntrySwitch(v int) (int, error) {
	if v < 0 || v >= len(nw.Nodes) {
		return 0, fmt.Errorf("topo: node %d out of range", v)
	}
	if nw.Nodes[v].Kind.IsSwitch() {
		return v, nil
	}
	if h := nw.hostOf[v]; h >= 0 {
		return int(h), nil
	}
	return 0, fmt.Errorf("topo: server %d is detached", v)
}

// SwitchGraph fills g with the switch fabric — the graph the throughput
// metric and the routing schemes run on, server links relaxed. Node i is
// Switches()[i] and edge e is the e-th switch-switch link in Links order;
// FPTAS and KSP tie-breaking follow that order. idx is resized to N() and
// filled with each node's switch index (-1 for servers), and returned.
// Both g and idx are the caller's, so a pooled caller refills them without
// allocating once warm.
func (nw *Network) SwitchGraph(g *graph.Graph, idx []int32) []int32 {
	if cap(idx) < len(nw.Nodes) {
		idx = make([]int32, len(nw.Nodes))
	}
	idx = idx[:len(nw.Nodes)]
	for i := range idx {
		idx[i] = -1
	}
	for i, s := range nw.switches {
		idx[s] = int32(i)
	}
	g.Reset(len(nw.switches))
	for _, l := range nw.Links {
		if nw.IsSwitchLink(l) {
			g.AddEdge(int(idx[l.A]), int(idx[l.B]))
		}
	}
	return idx
}

// PortsUsed returns the number of ports consumed at node v.
func (nw *Network) PortsUsed(v int) int { return nw.portUse[v] }

// Builder assembles a Network with strict port accounting. Build consumes
// it: the Network takes over the builder's tables, so any later call on the
// builder panics instead of writing into a network that is meant to be
// immutable.
type Builder struct {
	name  string
	nodes []Node
	links []Link
	used  []int
	built bool
}

// NewBuilder returns a builder for a network with the given name.
func NewBuilder(name string) *Builder { return &Builder{name: name} }

// open panics if Build already consumed b.
func (b *Builder) open(op string) {
	if b.built {
		//flatlint:ignore nopanic documented construction invariant: Build consumes the builder
		panic("topo: Builder." + op + " after Build: Build consumes the builder")
	}
}

// Reserve makes room for nodes more nodes and links more links, so a builder
// that knows its size up front (every topology here does, from k) fills its
// tables without regrowing them.
func (b *Builder) Reserve(nodes, links int) {
	b.open("Reserve")
	b.nodes = slices.Grow(b.nodes, nodes)
	b.used = slices.Grow(b.used, nodes)
	b.links = slices.Grow(b.links, links)
}

// Fork returns an independent builder holding b's nodes, links and port use,
// with room for links more links. The node table is shared rather than
// copied — a Builder never rewrites a node record, and an AddNode on the
// fork moves it to storage of its own. Fork only reads b, so one builder
// kept as a template may be forked from several goroutines at once.
func (b *Builder) Fork(links int) *Builder {
	b.open("Fork")
	// make-then-copy at full length: the runtime skips zeroing what the
	// copy overwrites, which a make with spare capacity would not.
	all := make([]Link, len(b.links)+links)
	copy(all, b.links)
	return &Builder{
		name:  b.name,
		nodes: b.nodes[:len(b.nodes):len(b.nodes)],
		links: all[:len(b.links)],
		used:  slices.Clone(b.used),
	}
}

// AddNode adds a node and returns its ID.
func (b *Builder) AddNode(kind Kind, pod, index, ports int) int {
	b.open("AddNode")
	if kind >= numKinds {
		//flatlint:ignore nopanic documented construction invariant: builders must be correct by construction
		panic(fmt.Sprintf("topo: node of unknown %s", kind))
	}
	id := len(b.nodes)
	b.nodes = append(b.nodes, Node{ID: id, Kind: kind, Pod: pod, Index: index, Ports: ports})
	b.used = append(b.used, 0)
	return id
}

// AddLink connects a and b, consuming one port on each. It panics if either
// node's port budget is exhausted or the endpoints are invalid — topology
// builders must be correct by construction.
func (b *Builder) AddLink(a, bb int, tag LinkTag) int {
	b.open("AddLink")
	if a == bb {
		//flatlint:ignore nopanic documented construction invariant: builders must be correct by construction
		panic(fmt.Sprintf("topo: self link at node %d", a))
	}
	for _, v := range [2]int{a, bb} {
		if v < 0 || v >= len(b.nodes) {
			//flatlint:ignore nopanic documented construction invariant: builders must be correct by construction
			panic(fmt.Sprintf("topo: link endpoint %d out of range", v))
		}
		if b.used[v] >= b.nodes[v].Ports {
			//flatlint:ignore nopanic documented construction invariant: builders must be correct by construction
			panic(fmt.Sprintf("topo: node %d (%s pod=%d idx=%d) out of ports (%d)",
				v, b.nodes[v].Kind, b.nodes[v].Pod, b.nodes[v].Index, b.nodes[v].Ports))
		}
	}
	id := len(b.links)
	b.links = append(b.links, Link{ID: id, A: a, B: bb, Tag: tag})
	b.used[a]++
	b.used[bb]++
	return id
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.nodes) }

// Build freezes the builder into a Network and consumes the builder. Every
// derived table is counted first and carved from one allocation, so a build
// costs a fixed number of allocations whatever the network's size.
func (b *Builder) Build() *Network {
	b.open("Build")
	nw := &Network{Name: b.name, Nodes: b.nodes, Links: b.links, portUse: b.used}
	*b = Builder{built: true}
	n := len(nw.Nodes)

	// The server and switch lists, ascending because node IDs are.
	servers := 0
	for i := range nw.Nodes {
		if nw.Nodes[i].Kind == Server {
			servers++
		}
	}
	ids := make([]int, n)
	nw.servers, nw.switches = ids[:0:servers], ids[servers:servers]
	for i := range nw.Nodes {
		if nw.Nodes[i].Kind == Server {
			nw.servers = append(nw.servers, i)
		} else {
			nw.switches = append(nw.switches, i)
		}
	}

	nw.hostOf = make([]int32, n)
	for i := range nw.hostOf {
		nw.hostOf[i] = -1
	}
	for _, l := range nw.Links {
		if sv, sw := nw.accessLink(l); sv >= 0 {
			nw.hostOf[sv] = int32(sw)
		}
	}
	return nw
}

// accessLink returns (server, switch) if l attaches a server to a switch,
// and (-1, -1) otherwise.
func (nw *Network) accessLink(l Link) (sv, sw int) {
	ka, kb := nw.Nodes[l.A].Kind, nw.Nodes[l.B].Kind
	switch {
	case ka == Server && kb.IsSwitch():
		return l.A, l.B
	case kb == Server && ka.IsSwitch():
		return l.B, l.A
	}
	return -1, -1
}

// Stats summarizes a network for display and sanity checks.
type Stats struct {
	Servers, EdgeSwitches, AggSwitches, CoreSwitches int
	Links                                            int
	LinksByTag                                       map[LinkTag]int
	SwitchSwitchLinks                                int
	ServerLinks                                      int
}

// Stats computes summary statistics.
func (nw *Network) Stats() Stats {
	s := Stats{Servers: len(nw.servers), Links: len(nw.Links), LinksByTag: make(map[LinkTag]int)}
	for i := range nw.Nodes {
		switch nw.Nodes[i].Kind {
		case EdgeSwitch:
			s.EdgeSwitches++
		case AggSwitch:
			s.AggSwitches++
		case CoreSwitch:
			s.CoreSwitches++
		}
	}
	for _, l := range nw.Links {
		s.LinksByTag[l.Tag]++
		if nw.IsSwitchLink(l) {
			s.SwitchSwitchLinks++
		} else {
			s.ServerLinks++
		}
	}
	return s
}

// Validate checks structural invariants: every server has exactly one
// link, to a switch; no port budget is exceeded (guaranteed by the builder
// but re-checked); and every node with a used port lies in one connected
// component. A node with no used port (a spare switch) is ignored.
func (nw *Network) Validate() error {
	for _, sv := range nw.servers {
		if use := nw.portUse[sv]; use != 1 {
			return fmt.Errorf("topo: server %d has %d links, want 1", sv, use)
		}
		if nw.hostOf[sv] < 0 {
			return fmt.Errorf("topo: server %d attached to a non-switch", sv)
		}
	}
	for _, n := range nw.Nodes {
		if nw.portUse[n.ID] > n.Ports {
			return fmt.Errorf("topo: node %d exceeds port budget (%d > %d)", n.ID, nw.portUse[n.ID], n.Ports)
		}
	}
	label, _ := nw.Components()
	first := int32(-1)
	for v, l := range label {
		switch {
		case nw.portUse[v] == 0:
		case first < 0:
			first = l
		case l != first:
			return fmt.Errorf("topo: network %q is not connected", nw.Name)
		}
	}
	return nil
}
