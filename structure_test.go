package flattree_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"flattree/internal/core"
	"flattree/internal/fattree"
	"flattree/internal/jellyfish"
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
	g := nw.Graph()
	put(g.N(), g.M())
	for _, e := range g.Edges() {
		put(int(e.A), int(e.B))
	}
	for v := 0; v < g.N(); v++ {
		put(g.Degree(v), nw.PortsUsed(v))
		for _, half := range g.Neighbors(v) {
			put(int(half.Peer), int(half.Edge))
		}
		for _, sv := range nw.HostedServers(v) {
			put(int(sv))
		}
		put(-1)
	}
	for _, sv := range nw.Servers() {
		put(sv, nw.HostSwitch(sv))
	}
	for _, kind := range []topo.Kind{topo.EdgeSwitch, topo.AggSwitch, topo.CoreSwitch} {
		put(nw.NodesOf(kind)...)
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
	add := func(name string, nw *topo.Network) {
		lines = append(lines, name+" "+structureDigest(nw))
	}
	flat := func(p core.Params) *core.FlatTree {
		ft, err := core.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		return ft
	}
	uniform := []core.Mode{core.ModeClos, core.ModeGlobalRandom, core.ModeLocalRandom}
	for _, k := range []int{4, 8, 16} {
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
	return lines
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
// or adjacency list (thousands at k=16 before). Ceilings leave ~2x slack.
func TestConstructionAllocs(t *testing.T) {
	for _, c := range []struct {
		name    string
		ceiling float64
		build   func() error
	}{
		{"fattree.New(16)", 40, func() error { _, err := fattree.New(16); return err }},
		{"jellyfish.New(16, 1)", 60, func() error { _, err := jellyfish.New(16, 1); return err }},
		{"core.BuildIn(k=16, global-random)", 70, func() error {
			_, err := core.BuildIn(core.Params{K: 16}, core.ModeGlobalRandom)
			return err
		}},
	} {
		got := testing.AllocsPerRun(5, func() {
			if err := c.build(); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocs, want <= %.0f", c.name, got, c.ceiling)
		}
		t.Logf("%s: %.0f allocs", c.name, got)
	}
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
// HopGraph (Graph.Induced) or sweeps one (HopGraph.Sweep). Measure through
// metrics.ServerPathLengths, which takes the server set to measure.
func TestOnePathLengthKernel(t *testing.T) {
	call := regexp.MustCompile(`\.(Induced|Sweep)\(`)
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
