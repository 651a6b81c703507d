// Package core implements the flat-tree convertible data-center network
// architecture (Xia & Ng, HotNets'16): a fat-tree(k) equipment set augmented
// with small port-count converter switches so that the topology can be
// converted at run time between a Clos network, an approximated global
// random graph, approximated per-pod local random graphs, and hybrid
// mixtures of these, without recabling.
//
// The construction follows §2.2-§2.5 of the paper:
//
//   - Each pod pairs edge switch Ej with aggregation switch Aj (r = 1 for
//     fat-tree equipment) and attaches n 4-port and m 6-port converters per
//     pair, arranged as blade matrices on the pod's two sides (Figure 3).
//   - Pod-core cabling follows wiring pattern 1 or 2 (Figure 4): the
//     connectors of edge index j across all pods land on the same group of
//     k/2 core switches, with the blade-B block rotated by p·m (pattern 1)
//     or p·(m+1) (pattern 2) positions in pod p.
//   - Adjacent pods' blade-B converters are paired through bundled side
//     connectors with the shifting pattern of §2.5, and take the Side
//     configuration on even rows and Cross on odd rows when converted.
//
// Conversion is purely a matter of converter configurations: Build assembles
// the physical cabling once — the node table, the untapped Clos links and
// the converters' external wiring, none of which a mode can change — and
// SetModes re-derives the effective topology for any per-pod mode assignment
// from that plus the links the converters splice.
package core

import (
	"errors"
	"fmt"

	"flattree/internal/converter"
	"flattree/internal/topo"
)

// ErrInvalidNetwork is wrapped by BuildIn, SetModes and SetUniformMode when
// the parameters are sound but the mode assignment's effective network fails
// topo validation — e.g. a wiring pattern whose rotation repeats every pod
// leaves the converted fabric disconnected.
var ErrInvalidNetwork = errors.New("core: effective network invalid")

// Mode is a pod's operation mode.
type Mode uint8

const (
	// ModeClos keeps the pod's original Clos wiring (all converters
	// Default).
	ModeClos Mode = iota
	// ModeGlobalRandom converts the pod for the network-wide approximated
	// random graph: 4-port converters Local, 6-port converters Side/Cross
	// by row parity (Local at zone boundaries).
	ModeGlobalRandom
	// ModeLocalRandom converts the pod into an approximated local random
	// graph: 4-port converters Local (half the servers move to aggregation
	// switches at n = k/4), 6-port converters Default.
	ModeLocalRandom
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeClos:
		return "clos"
	case ModeGlobalRandom:
		return "global-random"
	case ModeLocalRandom:
		return "local-random"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Pattern selects the pod-core wiring pattern of §2.3.
type Pattern uint8

const (
	// PatternAuto picks the pattern whose pod-to-pod rotation has the
	// longer repeat period, implementing the paper's stated motivation
	// (§2.3: pattern 1 "tends to repeat" when k/2 is a multiple of m,
	// "reducing the wiring diversity"; pattern 2 is then "more
	// favorable"). See RepeatPeriod; DESIGN.md discusses why this refines
	// the paper's shorthand "pattern 2 when k is a multiple of 4".
	PatternAuto Pattern = iota
	// Pattern1 packs blade-B connectors continuously pod by pod.
	Pattern1
	// Pattern2 advances the blade-B block by one extra core per pod.
	Pattern2
)

// String returns the pattern name.
func (p Pattern) String() string {
	switch p {
	case PatternAuto:
		return "auto"
	case Pattern1:
		return "pattern1"
	case Pattern2:
		return "pattern2"
	}
	return fmt.Sprintf("pattern(%d)", uint8(p))
}

// Params configures a flat-tree build.
type Params struct {
	// K is the fat-tree parameter (even, >= 4).
	K int
	// M and N are the numbers of 6-port and 4-port converters per
	// (edge, aggregation) switch pair; M+N <= K/2. Zero values select the
	// paper's profiled optimum via DefaultMN.
	M, N int
	// Pattern selects the pod-core wiring pattern (default PatternAuto).
	Pattern Pattern
	// Line disables the wrap-around side cabling between the last and
	// first pods. The paper describes neighbor wiring between adjacent
	// pods without fixing the boundary; the default (ring) uses every side
	// connector.
	Line bool
}

// DefaultMN returns the paper's profiled converter counts m = k/8 and
// n = 2k/8, rounded to the nearest integer (§3.2).
func DefaultMN(k int) (m, n int) {
	round := func(num, den int) int { return (2*num + den) / (2 * den) }
	return round(k, 8), round(2*k, 8)
}

// RepeatPeriod returns after how many pods a wiring pattern's rotation
// offset repeats: g/gcd(step, g) with g = k/2 and step m (pattern 1) or
// m+1 (pattern 2). A longer period means more wiring diversity across
// pods; a period of 1 would even leave some cores connected only to
// servers. If m is zero (no 6-port converters), both patterns are
// equivalent and the period is reported as g.
func RepeatPeriod(pat Pattern, k, m int) int {
	g := k / 2
	step := m
	if pat == Pattern2 {
		step = m + 1
	}
	if step%g == 0 {
		if step == 0 {
			return g
		}
		return 1
	}
	return g / gcd(step, g)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Blade distinguishes the 4-port (A) and 6-port (B) converter matrices.
type Blade uint8

const (
	// BladeA holds the 4-port converters.
	BladeA Blade = iota
	// BladeB holds the 6-port converters.
	BladeB
)

// String returns "A" or "B".
func (b Blade) String() string {
	if b == BladeA {
		return "A"
	}
	return "B"
}

// ConvInfo describes one converter's position and cabling. The slice index
// of a ConvInfo in FlatTree.Convs is its converter ID.
type ConvInfo struct {
	Pod   int
	Blade Blade
	// Row is the matrix row (i); Col is the pair index j in [0, d), so the
	// pod side is implied (left for j < ceil(d/2)).
	Row, Col int
	// Cabled devices.
	Server, Edge, Agg, Core int32
	// Peer is the converter ID paired through the side connectors, or -1
	// (always -1 for blade A).
	Peer int32
}

// FlatTree is a constructed flat-tree network with its converter plant and
// the effective topology for the current mode assignment.
type FlatTree struct {
	Params Params

	// Equipment node IDs (identical layout to package fattree).
	Cores     []int
	Edges     [][]int
	Aggs      [][]int
	ServerIDs []int

	// Convs describes the converter plant (positions and cabling).
	Convs []ConvInfo

	// What no mode assignment can change, computed once by BuildIn and only
	// read afterwards (effective networks are assembled from it by several
	// goroutines at once): base holds the node table and the untapped Clos
	// cabling and is forked per effective network, so node IDs and the IDs
	// of untapped links are the same in every mode; plant is Convs as
	// splice-ready converters, whose configurations travel beside it.
	base  *topo.Builder
	plant []converter.Converter

	modes   []Mode
	configs []converter.Config
	net     *topo.Network
}

// Build constructs the flat-tree physical plant for the given parameters
// with every pod in ModeClos.
func Build(p Params) (*FlatTree, error) { return BuildIn(p, ModeClos) }

// BuildIn is Build with every pod in mode from the start: one effective
// network is assembled, not a Clos one to be converted away.
func BuildIn(p Params, mode Mode) (*FlatTree, error) {
	if p.K < 4 || p.K%2 != 0 {
		return nil, fmt.Errorf("core: k must be even and >= 4, got %d", p.K)
	}
	if p.M == 0 && p.N == 0 {
		p.M, p.N = DefaultMN(p.K)
	}
	if p.Pattern == PatternAuto {
		if RepeatPeriod(Pattern2, p.K, p.M) > RepeatPeriod(Pattern1, p.K, p.M) {
			p.Pattern = Pattern2
		} else {
			p.Pattern = Pattern1
		}
	}
	k := p.K
	d := k / 2    // edge switches (and pairs) per pod
	g := k / 2    // cores per edge-index group (= h/r)
	half := k / 2 // servers per edge switch
	if p.M < 0 || p.N < 0 || p.M+p.N > half {
		return nil, fmt.Errorf("core: need 0 <= m,n and m+n <= k/2, got m=%d n=%d k=%d", p.M, p.N, k)
	}

	ft := &FlatTree{Params: p}
	ft.numberEquipment()

	// Converter plant. IDs are dense: pod-major, pair-major, blade B rows
	// then blade A rows, so that (pod, col) locates a contiguous run.
	serverAt := func(pod, pair, slot int) int32 {
		return int32(ft.ServerIDs[pod*d*half+pair*half+slot])
	}
	ft.Convs = make([]ConvInfo, 0, k*d*(p.M+p.N))
	for pod := 0; pod < k; pod++ {
		o := ft.coreOffset(pod)
		for pair := 0; pair < d; pair++ {
			base := pair * g
			for i := 0; i < p.M; i++ {
				ft.Convs = append(ft.Convs, ConvInfo{
					Pod: pod, Blade: BladeB, Row: i, Col: pair,
					Server: serverAt(pod, pair, i),
					Edge:   int32(ft.Edges[pod][pair]),
					Agg:    int32(ft.Aggs[pod][pair]),
					Core:   int32(ft.Cores[base+(o+i)%g]),
					Peer:   -1,
				})
			}
			for i := 0; i < p.N; i++ {
				ft.Convs = append(ft.Convs, ConvInfo{
					Pod: pod, Blade: BladeA, Row: i, Col: pair,
					Server: serverAt(pod, pair, p.M+i),
					Edge:   int32(ft.Edges[pod][pair]),
					Agg:    int32(ft.Aggs[pod][pair]),
					Core:   int32(ft.Cores[base+(o+p.M+i)%g]),
					Peer:   -1,
				})
			}
		}
	}
	ft.pairSideConnectors()
	ft.base = ft.untappedCabling()
	ft.plant = ft.cablePlant()

	ft.modes = make([]Mode, k)
	for pod := range ft.modes {
		ft.modes[pod] = mode
	}
	ft.configs = make([]converter.Config, len(ft.Convs))
	if err := ft.rebuild(); err != nil {
		return nil, err
	}
	return ft, nil
}

// coreOffset is pod's rotation of the blade block within each core group
// (§2.3): p·m positions under pattern 1, p·(m+1) under pattern 2.
func (ft *FlatTree) coreOffset(pod int) int {
	g := ft.Params.K / 2
	if ft.Params.Pattern == Pattern2 {
		return (pod * (ft.Params.M + 1)) % g
	}
	return (pod * ft.Params.M) % g
}

// numberEquipment allocates node IDs in the same order as package fattree so
// that flat-tree in ModeClos is node-for-node comparable with fat-tree(k).
func (ft *FlatTree) numberEquipment() {
	k := ft.Params.K
	half := k / 2
	id := 0
	ft.Cores = make([]int, half*half)
	for c := range ft.Cores {
		ft.Cores[c] = id
		id++
	}
	ft.Edges = make([][]int, k)
	ft.Aggs = make([][]int, k)
	podSwitches := make([]int, k*k)
	for p := 0; p < k; p++ {
		ft.Aggs[p] = podSwitches[p*k : p*k+half : p*k+half]
		ft.Edges[p] = podSwitches[p*k+half : (p+1)*k : (p+1)*k]
		for i := 0; i < half; i++ {
			ft.Aggs[p][i] = id
			id++
		}
		for j := 0; j < half; j++ {
			ft.Edges[p][j] = id
			id++
		}
	}
	ft.ServerIDs = make([]int, 0, k*half*half)
	for p := 0; p < k; p++ {
		for j := 0; j < half; j++ {
			for s := 0; s < half; s++ {
				ft.ServerIDs = append(ft.ServerIDs, id)
				id++
			}
		}
	}
}

// convID returns the converter ID at (pod, blade, row, pair-col).
func (ft *FlatTree) convID(pod int, blade Blade, row, col int) int {
	k, m, n := ft.Params.K, ft.Params.M, ft.Params.N
	d := k / 2
	perPair := m + n
	base := pod*d*perPair + col*perPair
	if blade == BladeB {
		return base + row
	}
	return base + m + row
}

// pairSideConnectors wires the bundled side connectors between adjacent
// pods' blade-B matrices with the shifting pattern of §2.5: converter
// <i, j> on the left of pod p+1 pairs with <i, (W-1-j+i) mod W> on the
// right of pod p, where W = floor(d/2) columns per side participate. For
// odd d the middle pair sits on the left with its side connectors unused.
func (ft *FlatTree) pairSideConnectors() {
	k, m := ft.Params.K, ft.Params.M
	d := k / 2
	left := (d + 1) / 2 // pairs 0..left-1 are on the left side
	w := d / 2          // participating columns per side
	if w == 0 || m == 0 {
		return
	}
	numAdj := k // ring
	if ft.Params.Line {
		numAdj = k - 1
	}
	for a := 0; a < numAdj; a++ {
		pr := a           // pod contributing its right blade
		pl := (a + 1) % k // pod contributing its left blade
		for i := 0; i < m; i++ {
			for j := 0; j < w; j++ {
				lc := ft.convID(pl, BladeB, i, j)
				rc := ft.convID(pr, BladeB, i, left+(w-1-j+i)%w)
				ft.Convs[lc].Peer = int32(rc)
				ft.Convs[rc].Peer = int32(lc)
			}
		}
	}
}

// Modes returns a copy of the current per-pod mode assignment.
func (ft *FlatTree) Modes() []Mode { return append([]Mode(nil), ft.modes...) }

// Mode returns pod p's current mode.
func (ft *FlatTree) Mode(p int) Mode { return ft.modes[p] }

// Net returns the effective network for the current mode assignment.
func (ft *FlatTree) Net() *topo.Network { return ft.net }

// Configs returns the current per-converter configurations (indexed by
// converter ID). The caller must not modify the slice.
func (ft *FlatTree) Configs() []converter.Config { return ft.configs }

// SetUniformMode puts every pod in the same mode and rebuilds the effective
// network.
func (ft *FlatTree) SetUniformMode(m Mode) error {
	modes := make([]Mode, ft.Params.K)
	for i := range modes {
		modes[i] = m
	}
	return ft.SetModes(modes)
}

// SetModes assigns one mode per pod (hybrid operation) and rebuilds the
// effective network.
func (ft *FlatTree) SetModes(modes []Mode) error {
	if len(modes) != ft.Params.K {
		return fmt.Errorf("core: got %d modes for %d pods", len(modes), ft.Params.K)
	}
	copy(ft.modes, modes)
	return ft.rebuild()
}

// ConfigFor computes the configuration converter id takes under the given
// per-pod modes. This is the controller's planning primitive: §2.6's
// centralized control plane calls it for every converter when converting
// zones.
func (ft *FlatTree) ConfigFor(id int, modes []Mode) converter.Config {
	ci := &ft.Convs[id]
	mode := modes[ci.Pod]
	if ci.Blade == BladeA {
		if mode == ModeClos {
			return converter.Default
		}
		return converter.Local
	}
	switch mode {
	case ModeClos, ModeLocalRandom:
		// Local-random mode keeps 6-port converters in Default (§2.1,
		// Figure 2d): servers split between edge (via 6-port) and
		// aggregation (via 4-port) switches.
		return converter.Default
	default: // ModeGlobalRandom
		if ci.Peer >= 0 && modes[ft.Convs[ci.Peer].Pod] == ModeGlobalRandom {
			// §2.5: even rows yield peer-wise (E-E', A-A') connections,
			// odd rows edge-aggregation (E-A', A-E') ones. Crossing must
			// be applied on exactly one end of a pair — if both ends
			// swapped their side ports the two swaps would cancel — so
			// the left-blade member of an odd row takes Cross and every
			// other paired converter takes Side.
			left := (ft.Params.K/2 + 1) / 2
			if ci.Row%2 == 1 && ci.Col < left {
				return converter.Cross
			}
			return converter.Side
		}
		// Unpaired (line boundary or odd-d middle column) or the peer pod
		// is in a different zone: fall back to Local, which still
		// diversifies link types without needing the side cables.
		return converter.Local
	}
}

// rebuild recomputes converter configurations and the effective network for
// the current modes.
func (ft *FlatTree) rebuild() error {
	for id := range ft.Convs {
		ft.configs[id] = ft.ConfigFor(id, ft.modes)
	}
	net, err := ft.effectiveNetwork(ft.configs, nil)
	if err != nil {
		return err
	}
	ft.net = net
	return nil
}

// cablePlant materializes Convs as splice-ready converters. Their Config
// fields stay Default and are never written: an assignment's configurations
// are handed to converter.Splice beside the plant.
func (ft *FlatTree) cablePlant() []converter.Converter {
	convs := make([]converter.Converter, len(ft.Convs))
	for id, ci := range ft.Convs {
		c := converter.Converter{ID: id, Ports: 4}
		if ci.Blade == BladeB {
			c.Ports = 6
		}
		for p := range c.Attach {
			c.Attach[p] = converter.NoEndpoint
		}
		c.Attach[converter.PortServer] = converter.Endpoint{Node: ci.Server, Conv: -1}
		c.Attach[converter.PortEdge] = converter.Endpoint{Node: ci.Edge, Conv: -1}
		c.Attach[converter.PortAgg] = converter.Endpoint{Node: ci.Agg, Conv: -1}
		c.Attach[converter.PortCore] = converter.Endpoint{Node: ci.Core, Conv: -1}
		if ci.Blade == BladeB && ci.Peer >= 0 {
			c.Attach[converter.PortSide1] = converter.Endpoint{Node: -1, Conv: ci.Peer, Port: converter.PortSide1}
			c.Attach[converter.PortSide2] = converter.Endpoint{Node: -1, Conv: ci.Peer, Port: converter.PortSide2}
		}
		convs[id] = c
	}
	return convs
}

// untappedCabling returns the builder every effective network is forked
// from: all nodes in the numbering order of numberEquipment, then the Clos
// links no converter taps. Spliced links are appended after these, so an
// untapped link keeps its ID across every mode assignment.
func (ft *FlatTree) untappedCabling() *topo.Builder {
	p := ft.Params
	k := p.K
	d, g, half := k/2, k/2, k/2
	tapped := p.M + p.N

	b := topo.NewBuilder(fmt.Sprintf("flattree(k=%d,m=%d,n=%d,%s)", k, p.M, p.N, p.Pattern))
	b.Reserve(half*half+k*k+len(ft.ServerIDs), k*d*(2*(half-tapped)+half))
	for c := 0; c < half*half; c++ {
		b.AddNode(topo.CoreSwitch, -1, c, k)
	}
	for pod := 0; pod < k; pod++ {
		for i := 0; i < half; i++ {
			b.AddNode(topo.AggSwitch, pod, i, k)
		}
		for j := 0; j < half; j++ {
			b.AddNode(topo.EdgeSwitch, pod, j, k)
		}
	}
	idx := 0
	for pod := 0; pod < k; pod++ {
		for j := 0; j < half; j++ {
			for s := 0; s < half; s++ {
				b.AddNode(topo.Server, pod, idx, 1)
				idx++
			}
		}
	}

	// Converter-tapped server slots are [0, m+n); tapped core-group slots
	// are the m+n starting at the pod's rotation offset.
	for pod := 0; pod < k; pod++ {
		o := ft.coreOffset(pod)
		for pair := 0; pair < d; pair++ {
			for s := tapped; s < half; s++ {
				sv := ft.ServerIDs[pod*d*half+pair*half+s]
				b.AddLink(sv, ft.Edges[pod][pair], topo.TagClos)
			}
			for t := tapped; t < g; t++ {
				core := ft.Cores[pair*g+(o+t)%g]
				b.AddLink(ft.Aggs[pod][pair], core, topo.TagClos)
			}
		}
		// The edge-aggregation mesh is never tapped.
		for j := 0; j < half; j++ {
			for i := 0; i < half; i++ {
				b.AddLink(ft.Edges[pod][j], ft.Aggs[pod][i], topo.TagClos)
			}
		}
	}
	return b
}

// effectiveNetwork builds the switch-level network induced by the physical
// plant plus the given converter configurations. A non-nil dark marks pods
// whose converter-spliced links are dropped (TransitionNetwork's dark
// converters); such builds skip validation because they legitimately
// contain detached servers. It only reads ft's static plant.
func (ft *FlatTree) effectiveNetwork(configs []converter.Config, dark []bool) (*topo.Network, error) {
	links, err := converter.Splice(ft.plant, configs)
	if err != nil {
		return nil, err
	}
	b := ft.base.Fork(len(links))
	for _, l := range links {
		if dark != nil && (ft.inDarkPod(dark, l.A) || ft.inDarkPod(dark, l.B)) {
			continue
		}
		tag := topo.TagConverter
		if l.ViaSide {
			tag = topo.TagSide
		} else if ft.isClosShape(int(l.A), int(l.B)) {
			tag = topo.TagClos
		}
		b.AddLink(int(l.A), int(l.B), tag)
	}
	nw := b.Build()
	if dark == nil {
		if err := nw.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrInvalidNetwork, err)
		}
	}
	return nw, nil
}

// inDarkPod reports whether device id sits in a pod marked dark (cores sit
// in none).
func (ft *FlatTree) inDarkPod(dark []bool, id int32) bool {
	pod := ft.podOfNode(int(id))
	return pod >= 0 && dark[pod]
}

// isClosShape reports whether a spliced link reproduces an original Clos
// link type: agg-core or edge-server (i.e. the converter is in Default).
func (ft *FlatTree) isClosShape(a, bb int) bool {
	ka := ft.kindOf(a)
	kb := ft.kindOf(bb)
	if ka > kb {
		ka, kb = kb, ka
	}
	// (server, edge) or (agg, core) in the order server<edge<agg<core.
	return (ka == 0 && kb == 1) || (ka == 2 && kb == 3)
}

// kindOf classifies a node ID by the numbering layout: 0 server, 1 edge,
// 2 agg, 3 core.
func (ft *FlatTree) kindOf(id int) int {
	k := ft.Params.K
	half := k / 2
	cores := half * half
	podSw := k * k // k pods * (half aggs + half edges)
	switch {
	case id < cores:
		return 3
	case id < cores+podSw:
		if (id-cores)%k < half {
			return 2 // aggs come first within a pod
		}
		return 1
	default:
		return 0
	}
}

// NumServers returns k^3/4.
func (ft *FlatTree) NumServers() int { return len(ft.ServerIDs) }

// NumPods returns k.
func (ft *FlatTree) NumPods() int { return ft.Params.K }
