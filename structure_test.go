package flattree_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"flattree/internal/core"
	"flattree/internal/fattree"
	"flattree/internal/faults"
	"flattree/internal/graph"
	"flattree/internal/jellyfish"
	"flattree/internal/mcf"
	"flattree/internal/metrics"
	"flattree/internal/topo"
	"flattree/internal/twostage"
)

var updateStructure = flag.Bool("update-structure", false, "rewrite testdata/structure.sha256 from the current builders")

const structureGolden = "testdata/structure.sha256"

// structureDigest hashes everything a consumer can observe about a network's
// shape: the node table, the link table with IDs and tags, every adjacency
// list in iteration order, and the server attachment tables.
func structureDigest(nw *topo.Network) string {
	h := sha256.New()
	put := func(vs ...int) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
			h.Write(buf[:])
		}
	}
	h.Write([]byte(nw.Name))
	put(len(nw.Nodes), len(nw.Links))
	for _, n := range nw.Nodes {
		put(n.ID, int(n.Kind), n.Pod, n.Index, n.Ports)
	}
	for _, l := range nw.Links {
		put(l.ID, l.A, l.B, int(l.Tag))
	}
	// The per-switch hosted-server lists in link order and the per-kind ID
	// lists, read off the link and node tables.
	hosted := make([][]int, len(nw.Nodes))
	for _, l := range nw.Links {
		ka, kb := nw.Nodes[l.A].Kind, nw.Nodes[l.B].Kind
		switch {
		case ka == topo.Server && kb.IsSwitch():
			hosted[l.B] = append(hosted[l.B], l.A)
		case kb == topo.Server && ka.IsSwitch():
			hosted[l.A] = append(hosted[l.A], l.B)
		}
	}
	byKind := make(map[topo.Kind][]int)
	for _, n := range nw.Nodes {
		byKind[n.Kind] = append(byKind[n.Kind], n.ID)
	}
	g := nw.Graph()
	put(g.N(), g.M())
	for _, e := range g.Edges() {
		put(int(e.A), int(e.B))
	}
	for v := 0; v < g.N(); v++ {
		put(len(g.Neighbors(v)), nw.PortsUsed(v))
		for _, half := range g.Neighbors(v) {
			put(int(half.Peer), int(half.Edge))
		}
		put(hosted[v]...)
		put(-1)
	}
	for _, sv := range nw.Servers() {
		put(sv, nw.HostSwitch(sv))
	}
	for _, kind := range []topo.Kind{topo.EdgeSwitch, topo.AggSwitch, topo.CoreSwitch} {
		put(byKind[kind]...)
		put(-1)
	}
	put(nw.Switches()...)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// structureCases builds every topology the golden file pins and returns
// "name digest" lines in a fixed order.
func structureCases(t *testing.T) []string {
	t.Helper()
	var lines []string
	structureNetworks(t, []int{4, 8, 16}, func(name string, nw *topo.Network) {
		lines = append(lines, name+" "+structureDigest(nw))
	})
	return lines
}

// structureNetworks builds, at each k, every builder's network, every
// uniform flat-tree mode, a hybrid assignment, dark windows (which detach
// servers) and a non-default plant, and hands each to add with a case name,
// in a fixed order.
func structureNetworks(t *testing.T, ks []int, add func(name string, nw *topo.Network)) {
	t.Helper()
	flat := func(p core.Params) *core.FlatTree {
		ft, err := core.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		return ft
	}
	uniform := []core.Mode{core.ModeClos, core.ModeGlobalRandom, core.ModeLocalRandom}
	for _, k := range ks {
		fat, err := fattree.New(k)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("fattree/k=%d", k), fat.Net)

		ft := flat(core.Params{K: k})
		add(fmt.Sprintf("flattree/k=%d/built", k), ft.Net())
		for _, mode := range uniform {
			if err := ft.SetUniformMode(mode); err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("flattree/k=%d/%s", k, mode), ft.Net())
		}
		// One hybrid assignment (modes cycle global, local, clos) and the
		// dark window of converting pods 0 and k/2 out of it.
		modes := make([]core.Mode, k)
		for p := range modes {
			modes[p] = []core.Mode{core.ModeGlobalRandom, core.ModeLocalRandom, core.ModeClos}[p%3]
		}
		if err := ft.SetModes(modes); err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("flattree/k=%d/hybrid", k), ft.Net())
		dark, err := ft.TransitionNetwork([]int{0, k / 2})
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("flattree/k=%d/hybrid/transition", k), dark)
		if err := ft.SetUniformMode(core.ModeGlobalRandom); err != nil {
			t.Fatal(err)
		}
		if dark, err = ft.TransitionNetwork([]int{1}); err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("flattree/k=%d/global-random/transition", k), dark)

		// Non-default plant: explicit (m, n), line cabling, both patterns.
		for _, pat := range []core.Pattern{core.Pattern1, core.Pattern2} {
			ft := flat(core.Params{K: k, M: 1, N: 1, Pattern: pat, Line: true})
			if err := ft.SetUniformMode(core.ModeGlobalRandom); err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("flattree/k=%d/m=1,n=1,line,%s/global-random", k, pat), ft.Net())
		}

		for _, seed := range []uint64{1, 7} {
			rg, err := jellyfish.New(k, seed)
			if err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("jellyfish/k=%d/seed=%d", k, seed), rg.Net)
			_, n := core.DefaultMN(k)
			two, err := twostage.New(k, n, seed)
			if err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("twostage/k=%d/n=%d/seed=%d", k, n, seed), two.Net)
		}
	}
}

// TestComponentsMatchNodeGraph: Network.Components, which labels the link
// list without building a graph, equals the node-level graph's labelling —
// labels and count — on every structure case at k = 4..8, dark windows
// with detached servers among them, and Validate's verdict is the node
// graph's rule: one server link each, and every linked node connected.
func TestComponentsMatchNodeGraph(t *testing.T) {
	detached := 0
	structureNetworks(t, []int{4, 6, 8}, func(name string, nw *topo.Network) {
		g := nw.Graph()
		label, count := nw.Components()
		wantLabel, wantCount := g.Components()
		if count != wantCount || !slices.Equal(label, wantLabel) {
			t.Errorf("%s: Components() gives %d components, the node graph %d (or labels differ)", name, count, wantCount)
		}
		oneLink := true
		for _, sv := range nw.Servers() {
			switch len(g.Neighbors(sv)) {
			case 0:
				detached++
				oneLink = false
			case 1:
			default:
				oneLink = false
			}
		}
		if want := oneLink && g.Connected(); (nw.Validate() == nil) != want {
			t.Errorf("%s: Validate() = %v, the node graph says valid=%t", name, nw.Validate(), want)
		}
	})
	if detached == 0 {
		t.Error("no case detaches a server; the dark windows should")
	}
}

// renumbering is one way to rebuild a network: node v becomes perm[v], link
// order[i] is added as the i-th link, and link i's ends swap when swap[i] is
// set.
type renumbering struct {
	name        string
	perm, order []int
	swap        []bool
}

// renumberings returns the three rebuilds of nw the numbering tests run:
// node IDs permuted, links shuffled, link ends swapped.
func renumberings(rng *graph.RNG, nw *topo.Network) []renumbering {
	noSwap := make([]bool, len(nw.Links))
	swap := make([]bool, len(nw.Links))
	for i := range swap {
		swap[i] = rng.Intn(2) == 1
	}
	return []renumbering{
		{"ids permuted", rng.Perm(nw.N()), identity(len(nw.Links)), noSwap},
		{"links shuffled", identity(nw.N()), rng.Perm(len(nw.Links)), noSwap},
		{"ends swapped", identity(nw.N()), identity(len(nw.Links)), swap},
	}
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// relabel rebuilds nw the way r says.
func relabel(nw *topo.Network, r renumbering) *topo.Network {
	old := make([]int, len(r.perm))
	for v, p := range r.perm {
		old[p] = v
	}
	b := topo.NewBuilder(nw.Name)
	for _, v := range old {
		nd := nw.Nodes[v]
		b.AddNode(nd.Kind, nd.Pod, nd.Index, nd.Ports)
	}
	for _, i := range r.order {
		l := nw.Links[i]
		a, c := r.perm[l.A], r.perm[l.B]
		if r.swap[i] {
			a, c = c, a
		}
		b.AddLink(a, c, l.Tag)
	}
	return b.Build()
}

// TestPathLengthIgnoresNumbering: server-pair path length is a property of
// the network, not of how it is numbered. Every structure case at k = 4
// and 8 is rebuilt three ways — node IDs permuted, links shuffled, link
// ends swapped — and ServerPathLengths over its largest component's
// servers, mapped into the rebuilt network, gives the same histogram,
// means and diameter, bit for bit.
func TestPathLengthIgnoresNumbering(t *testing.T) {
	rng := graph.NewRNG(1)
	structureNetworks(t, []int{4, 8}, func(name string, nw *topo.Network) {
		servers := faults.LargestComponent(nw)
		want, err := metrics.ServerPathLengths(nw, servers)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, way := range renumberings(rng, nw) {
			mapped := make([]int, len(servers))
			for i, sv := range servers {
				mapped[i] = way.perm[sv]
			}
			slices.Sort(mapped)
			got, err := metrics.ServerPathLengths(relabel(nw, way), mapped)
			if err != nil {
				t.Fatalf("%s, %s: %v", name, way.name, err)
			}
			if !slices.Equal(got.Histogram, want.Histogram) || got.Max != want.Max ||
				math.Float64bits(got.Global) != math.Float64bits(want.Global) ||
				math.Float64bits(got.IntraPod) != math.Float64bits(want.IntraPod) {
				t.Errorf("%s, %s: %+v, want %+v", name, way.name, got, want)
			}
		}
	})
}

// TestStarLambdaIgnoresNumbering: the exact path's λ is a property of the
// network too. On every structure case at k = 4 and 8, rebuilt the three
// ways above, a one-hot-spot broadcast — the largest component's first
// server to each of its others — solves on the exact path to the original's
// λ within a relative 1e-9 (the max-flow sums in another order).
func TestStarLambdaIgnoresNumbering(t *testing.T) {
	rng := graph.NewRNG(1)
	structureNetworks(t, []int{4, 8}, func(name string, nw *topo.Network) {
		servers := faults.LargestComponent(nw)
		solve := func(way string, nw *topo.Network, perm []int) float64 {
			comms := make([]mcf.Commodity, 0, len(servers)-1)
			for _, sv := range servers[1:] {
				comms = append(comms, mcf.Commodity{Src: perm[servers[0]], Dst: perm[sv], Demand: 1})
			}
			res, err := mcf.MaxConcurrentFlow(context.Background(), nw, comms, mcf.Options{})
			if err != nil {
				t.Fatalf("%s, %s: %v", name, way, err)
			}
			if res.Phases != 0 || res.Dijkstras != 0 || math.IsInf(res.Lambda, 0) {
				t.Fatalf("%s, %s: λ %g after %d phases, %d shortest paths; want a finite exact solve",
					name, way, res.Lambda, res.Phases, res.Dijkstras)
			}
			return res.Lambda
		}
		want := solve("original", nw, identity(nw.N()))
		for _, way := range renumberings(rng, nw) {
			if got := solve(way.name, relabel(nw, way), way.perm); math.Abs(got-want) > 1e-9*want {
				t.Errorf("%s, %s: λ %.17g, want %.17g", name, way.name, got, want)
			}
		}
	})
}

// TestFPTASBracketIgnoresNumbering: the FPTAS's certificate is a property
// of the network too. Every instance below is solved on its network and on
// the three rebuilds above, with its commodities mapped through the same
// permutation. Every solve must converge with a finite bracket
// [λ, UpperBound] and take the original's solve path (exact star or
// FPTAS); both brackets hold the optimum, so each rebuild's must intersect
// the original's.
//
// The instances: a multi-source one over the largest component — each
// server to the servers a half and a third of the way around it — which
// runs the FPTAS on every structure case at k = 4 and on fat-tree and
// global flat-tree at k = 8; and every checked-in FuzzSolverCertificate
// corpus entry, decoded as that target does (a k = 4 flat-tree mode, ε,
// demand scale and up to four commodities). The corpus holds instances on
// the solver's edges (one source, skewed demands, 1e-3 and 1e3 scales), and
// the solver keeps per-source state — the stored paths of its path reuse —
// where a bug tied to numbering would hide. Corpus entries with one source
// or one destination switch take the exact star path; the rest must run
// the FPTAS.
func TestFPTASBracketIgnoresNumbering(t *testing.T) {
	rng := graph.NewRNG(1)
	bracket := func(name string, nw *topo.Network, comms func(perm []int) []mcf.Commodity, eps float64) mcf.Result {
		solve := func(way string, nw *topo.Network, perm []int) mcf.Result {
			res, err := mcf.MaxConcurrentFlow(context.Background(), nw, comms(perm), mcf.Options{Epsilon: eps})
			if err != nil {
				t.Fatalf("%s, %s: %v", name, way, err)
			}
			if res.Approximate || !(res.Lambda > 0) || math.IsInf(res.UpperBound, 0) {
				t.Fatalf("%s, %s: λ %g ≤ %g after %d phases (approximate %t); want a converged solve",
					name, way, res.Lambda, res.UpperBound, res.Phases, res.Approximate)
			}
			return res
		}
		want := solve("original", nw, identity(nw.N()))
		for _, way := range renumberings(rng, nw) {
			got := solve(way.name, relabel(nw, way), way.perm)
			if (got.Phases == 0) != (want.Phases == 0) {
				t.Errorf("%s, %s: %d phases where the original ran %d; a rebuild must take the same solve path",
					name, way.name, got.Phases, want.Phases)
			}
			if got.Lambda > want.UpperBound*(1+1e-9) || want.Lambda > got.UpperBound*(1+1e-9) {
				t.Errorf("%s, %s: bracket [%g, %g] misses the original's [%g, %g]",
					name, way.name, got.Lambda, got.UpperBound, want.Lambda, want.UpperBound)
			}
		}
		return want
	}

	shifts := func(name string, nw *topo.Network) {
		servers := faults.LargestComponent(nw)
		n := len(servers)
		comms := func(perm []int) []mcf.Commodity {
			var comms []mcf.Commodity
			for i, sv := range servers {
				for _, shift := range []int{n / 2, n / 3} {
					comms = append(comms, mcf.Commodity{Src: perm[sv], Dst: perm[servers[(i+shift)%n]], Demand: 1})
				}
			}
			return comms
		}
		if res := bracket(name, nw, comms, 0.1); res.Phases == 0 {
			t.Fatalf("%s: solved with 0 phases; want the FPTAS", name)
		}
	}
	structureNetworks(t, []int{4}, shifts)
	fat, err := fattree.New(8)
	if err != nil {
		t.Fatal(err)
	}
	shifts("fattree/k=8", fat.Net)
	ft, err := core.BuildIn(core.Params{K: 8}, core.ModeGlobalRandom)
	if err != nil {
		t.Fatal(err)
	}
	shifts("flattree/k=8/global-random", ft.Net())

	const corpus = "internal/mcf/testdata/fuzz/FuzzSolverCertificate"
	entries, err := os.ReadDir(corpus)
	if err != nil {
		t.Fatal(err)
	}
	modes := []core.Mode{core.ModeClos, core.ModeGlobalRandom, core.ModeLocalRandom}
	fptas := 0
	for _, e := range entries {
		data, err := readFuzzBytes(filepath.Join(corpus, e.Name()))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		// Byte 0 the mode, byte 1 the ε, byte 2 the power of ten, then
		// (src, dst, demand) triples.
		if len(data) < 6 {
			t.Fatalf("%s: %d bytes decode to no instance", e.Name(), len(data))
		}
		ft, err := core.BuildIn(core.Params{K: 4}, modes[int(data[0])%len(modes)])
		if err != nil {
			t.Fatal(err)
		}
		servers := ft.ServerIDs
		eps := []float64{0.05, 0.1, 0.2}[int(data[1])%3]
		scale := math.Pow(10, float64(int(data[2])%7-3))
		comms := func(perm []int) []mcf.Commodity {
			var comms []mcf.Commodity
			for rest := data[3:]; len(rest) >= 3 && len(comms) < 4; rest = rest[3:] {
				s, d := int(rest[0])%len(servers), int(rest[1])%len(servers)
				if s != d {
					comms = append(comms, mcf.Commodity{Src: perm[servers[s]], Dst: perm[servers[d]], Demand: float64(1+int(rest[2])%8) * scale})
				}
			}
			return comms
		}
		if res := bracket(e.Name(), ft.Net(), comms, eps); res.Phases > 0 {
			fptas++
		}
	}
	if len(entries) != 8 || fptas < 6 {
		t.Errorf("%d corpus entries, %d of them on the FPTAS; want 8 and at least 6", len(entries), fptas)
	}
}

// readFuzzBytes reads a one-[]byte go-fuzz corpus file.
func readFuzzBytes(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		return nil, fmt.Errorf("not a one-[]byte corpus file: %q", raw)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	return []byte(s), err
}

// TestStructureGolden pins node IDs, link IDs, tags and adjacency order of
// every builder against digests recorded before construction was made
// single-pass: a construction change that moves any of them fails here, not
// three layers up in a table diff.
func TestStructureGolden(t *testing.T) {
	got := strings.Join(structureCases(t), "\n") + "\n"
	if *updateStructure {
		if err := os.WriteFile(structureGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(structureGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, []byte(got)) {
		return
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(got), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("golden has %d cases, builders produced %d (rerun with -update-structure only if the case list changed)", len(wantLines), len(gotLines))
	}
	for i := range wantLines {
		if wantLines[i] != gotLines[i] {
			t.Errorf("structure moved:\n  want %s\n  got  %s", wantLines[i], gotLines[i])
		}
	}
}

// TestConstructionAllocs guards allocation-exact construction: builders
// reserve their tables from k and Build carves every derived table from a
// counted slab, so a topology costs tens of allocations, not one per node
// or adjacency list (thousands at k=16 before). Allocation ceilings leave
// ~2x slack. The byte ceilings (KB = 1024 B) sit between a build that
// still filled a node-level graph over every node, servers included (338,
// 409 and 559 KB on these cases), and one that keeps no graph (203, 273
// and 418 KB).
func TestConstructionAllocs(t *testing.T) {
	for _, c := range []struct {
		name    string
		ceiling float64
		maxKB   float64
		build   func() error
	}{
		{"fattree.New(16)", 40, 280, func() error { _, err := fattree.New(16); return err }},
		{"jellyfish.New(16, 1)", 60, 350, func() error { _, err := jellyfish.New(16, 1); return err }},
		{"core.BuildIn(k=16, global-random)", 70, 500, func() error {
			_, err := core.BuildIn(core.Params{K: 16}, core.ModeGlobalRandom)
			return err
		}},
	} {
		build := func() {
			if err := c.build(); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(5, build)
		kb := bytesPerRun(5, build) / 1024
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocs, want <= %.0f", c.name, got, c.ceiling)
		}
		if kb > c.maxKB {
			t.Errorf("%s: %.0f KB, want <= %.0f KB", c.name, kb, c.maxKB)
		}
		t.Logf("%s: %.0f allocs, %.0f KB", c.name, got, kb)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes one
// call of f allocates, after a warm-up call, on one P.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestSolverDoorsHaveNoUsers keeps the solver's compatibility doors from
// growing users before the benchmark-only PR removes them: internal/mcf
// names nothing Warm* but Result.WarmStarted, and no non-test file outside
// internal/mcf and benchmark/ (which still compiles against the doors)
// mentions mcf.Solver, GetSolver or WarmStarted.
func TestSolverDoorsHaveNoUsers(t *testing.T) {
	warm := regexp.MustCompile(`\w*Warm\w*`)
	door := regexp.MustCompile(`mcf\.Solver|GetSolver|WarmStarted`)
	forEachProgramFile(t, func(path string, src []byte) {
		switch {
		case strings.HasPrefix(path, "benchmark"+string(filepath.Separator)):
		case filepath.Dir(path) == filepath.Join("internal", "mcf"):
			for _, name := range warm.FindAllString(string(src), -1) {
				if name != "WarmStarted" {
					t.Errorf("%s names %s; the warm-start machinery is gone and only Result.WarmStarted remains for benchmark/", path, name)
				}
			}
		default:
			if m := door.Find(src); m != nil {
				t.Errorf("%s uses %s; call mcf.MaxConcurrentFlow instead", path, m)
			}
		}
	})
}

// TestOnlyTopoClassifiesLinks keeps the switch fabric's definition in one
// place: outside internal/topo, no non-test file reads the Kind of both
// endpoints of a link. Ask topo instead — Network.IsSwitchLink for the
// predicate, Network.SwitchGraph for the switch-level graph,
// Network.EntrySwitch for where a node's traffic enters the fabric.
func TestOnlyTopoClassifiesLinks(t *testing.T) {
	endA := regexp.MustCompile(`\[\s*\w+\.A\s*\]\.Kind\b`)
	endB := regexp.MustCompile(`\[\s*\w+\.B\s*\]\.Kind\b`)
	forEachProgramFile(t, func(path string, src []byte) {
		if filepath.Dir(path) != filepath.Join("internal", "topo") && endA.Match(src) && endB.Match(src) {
			t.Errorf("%s reads the Kind of both endpoints of a link; use topo's Network.IsSwitchLink, SwitchGraph or EntrySwitch", path)
		}
	})
}

// TestOnePathLengthKernel keeps server-pair path length in one place: no
// non-test file outside internal/graph and internal/metrics builds a
// HopGraph (graph.NewHopGraph) or sweeps one (HopGraph.Sweep). Measure
// through metrics.ServerPathLengths, which takes the server set to measure.
func TestOnePathLengthKernel(t *testing.T) {
	call := regexp.MustCompile(`\bNewHopGraph\(|\.Sweep\(`)
	forEachProgramFile(t, func(path string, src []byte) {
		switch filepath.Dir(path) {
		case filepath.Join("internal", "graph"), filepath.Join("internal", "metrics"):
			return
		}
		if m := call.Find(src); m != nil {
			t.Errorf("%s calls %s; measure path length through metrics.ServerPathLengths", path, m)
		}
	})
}

// TestNoNodeGraphCallers: a Network keeps no node-level graph, and
// Network.Graph builds one, servers included, on every call. Outside
// internal/topo, only faults' recovery (which rewires a graph of its own)
// and benchmark/ may call it; everything else reads what it needs from
// Links — Network.Components, SwitchGraph, EntrySwitch, metrics.
func TestNoNodeGraphCallers(t *testing.T) {
	call := regexp.MustCompile(`\.Graph\(\)`)
	forEachProgramFile(t, func(path string, src []byte) {
		switch {
		case filepath.Dir(path) == filepath.Join("internal", "topo"),
			path == filepath.Join("internal", "faults", "recover.go"),
			strings.HasPrefix(path, "benchmark"+string(filepath.Separator)):
			return
		}
		if call.Match(src) {
			t.Errorf("%s calls Network.Graph, which builds a node-level graph per call; use Network.Components, SwitchGraph or metrics", path)
		}
	})
}

// TestOraclesStayInTests keeps the exact references out of the product:
// no non-test file imports internal/oracle, and none outside it imports
// internal/lp, the simplex the oracle solves with. A checker that shared
// code with the solver it checks could not catch that code's faults.
func TestOraclesStayInTests(t *testing.T) {
	oracle := regexp.MustCompile(`"flattree/internal/oracle"`)
	lp := regexp.MustCompile(`"flattree/internal/lp"`)
	forEachProgramFile(t, func(path string, src []byte) {
		if oracle.Match(src) {
			t.Errorf("%s imports internal/oracle, which only tests may import", path)
		}
		if filepath.Dir(path) != filepath.Join("internal", "oracle") && lp.Match(src) {
			t.Errorf("%s imports internal/lp; only internal/oracle solves LPs", path)
		}
	})
}

// forEachProgramFile calls fn with every non-test .go file of the module,
// its path relative to the root, skipping testdata and hidden directories.
func forEachProgramFile(t *testing.T, fn func(path string, src []byte)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fn(path, src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
