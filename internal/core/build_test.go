package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"flattree/internal/converter"
	"flattree/internal/metrics"
	"flattree/internal/topo"
)

// sameStructure compares everything a consumer can observe of two networks'
// shape: tables, adjacency order and server attachment.
func sameStructure(t *testing.T, what string, a, b *topo.Network) {
	t.Helper()
	if a.Name != b.Name || !reflect.DeepEqual(a.Nodes, b.Nodes) || !reflect.DeepEqual(a.Links, b.Links) {
		t.Fatalf("%s: node or link tables differ", what)
	}
	for v := 0; v < a.N(); v++ {
		if !reflect.DeepEqual(a.Graph().Neighbors(v), b.Graph().Neighbors(v)) ||
			!reflect.DeepEqual(a.HostedServers(v), b.HostedServers(v)) ||
			a.PortsUsed(v) != b.PortsUsed(v) {
			t.Fatalf("%s: node %d differs", what, v)
		}
	}
}

// TestBuildInEqualsBuildThenConvert: building in a mode is the same
// flat-tree as building in Clos and converting — same effective network,
// same configurations, and it converts onward identically.
func TestBuildInEqualsBuildThenConvert(t *testing.T) {
	for _, p := range []Params{{K: 4}, {K: 8}, {K: 10, Line: true}, {K: 12, M: 2, N: 3, Pattern: Pattern1}} {
		for _, mode := range []Mode{ModeClos, ModeGlobalRandom, ModeLocalRandom} {
			direct, err := BuildIn(p, mode)
			if err != nil {
				t.Fatal(err)
			}
			staged, err := Build(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := staged.SetUniformMode(mode); err != nil {
				t.Fatal(err)
			}
			sameStructure(t, mode.String(), direct.Net(), staged.Net())
			if !reflect.DeepEqual(direct.Configs(), staged.Configs()) || !reflect.DeepEqual(direct.Modes(), staged.Modes()) {
				t.Fatalf("%v %s: configs or modes differ", p, mode)
			}
			if !reflect.DeepEqual(direct.Convs, staged.Convs) {
				t.Fatalf("%v %s: converter plants differ", p, mode)
			}
			for _, ft := range []*FlatTree{direct, staged} {
				if err := ft.SetUniformMode(ModeLocalRandom); err != nil {
					t.Fatal(err)
				}
			}
			sameStructure(t, mode.String()+"->local", direct.Net(), staged.Net())
		}
	}
}

// TestBuildInReportsInvalidNetwork: parameters that are sound but convert to
// a disconnected fabric are told apart from bad parameters.
func TestBuildInReportsInvalidNetwork(t *testing.T) {
	// k=4 pattern 2 repeats every pod: some cores end up cabled only to
	// servers in global-random mode.
	_, err := BuildIn(Params{K: 4, M: 1, N: 1, Pattern: Pattern2}, ModeGlobalRandom)
	if !errors.Is(err, ErrInvalidNetwork) {
		t.Errorf("disconnected conversion: err = %v, want ErrInvalidNetwork", err)
	}
	if _, err := BuildIn(Params{K: 5}, ModeGlobalRandom); err == nil || errors.Is(err, ErrInvalidNetwork) {
		t.Errorf("bad k: err = %v, want a parameter error", err)
	}
}

// TestUntappedLinksKeepIDs: the untapped Clos cabling comes first and in the
// same order in every effective network, so those link IDs never move.
func TestUntappedLinksKeepIDs(t *testing.T) {
	ft := build(t, 8)
	clos := ft.Net()
	k, tapped := ft.Params.K, ft.Params.M+ft.Params.N
	untapped := k * (k / 2) * (2*(k/2-tapped) + k/2)
	modes := make([]Mode, k)
	for p := range modes {
		modes[p] = Mode(p % 3)
	}
	if err := ft.SetModes(modes); err != nil {
		t.Fatal(err)
	}
	dark, err := ft.TransitionNetwork([]int{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, nw := range []*topo.Network{ft.Net(), dark} {
		if !reflect.DeepEqual(nw.Links[:untapped], clos.Links[:untapped]) {
			t.Fatal("untapped cabling moved")
		}
		for _, l := range nw.Links[:untapped] {
			if l.Tag != topo.TagClos {
				t.Fatalf("untapped link %d tagged %s", l.ID, l.Tag)
			}
		}
	}
}

// TestSharedPlantIsReadOnlyUnderConcurrency: effective networks of one
// FlatTree share its node table, base cabling and converter plant. Dark
// windows, Net() readers and a path-length sweep run together must not
// write any of it (run under -race), and every result must equal the one
// computed alone.
func TestSharedPlantIsReadOnlyUnderConcurrency(t *testing.T) {
	ft, err := BuildIn(Params{K: 8}, ModeGlobalRandom)
	if err != nil {
		t.Fatal(err)
	}
	plant := append([]converter.Converter(nil), ft.plant...)
	wantAPL, err := metrics.AveragePathLength(ft.Net())
	if err != nil {
		t.Fatal(err)
	}
	wantDark := make([]*topo.Network, ft.NumPods())
	for p := range wantDark {
		if wantDark[p], err = ft.TransitionNetwork([]int{p}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for p := range wantDark {
				nw, err := ft.TransitionNetwork([]int{p})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(nw.Links, wantDark[p].Links) {
					t.Errorf("dark window of pod %d differs when built concurrently", p)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				apl, err := metrics.AveragePathLength(ft.Net())
				if err != nil || apl != wantAPL {
					t.Errorf("APL = %v, %v; want %v", apl, err, wantAPL)
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(plant, ft.plant) {
		t.Error("the cached converter plant was written")
	}
	for _, c := range ft.plant {
		if c.Config != converter.Default {
			t.Fatalf("converter %d: a configuration was written into the cached plant", c.ID)
		}
	}
}

// TestConversionAllocs: an effective network costs a fixed handful of
// allocations — slabs, not per-node or per-link lists — whatever k is.
func TestConversionAllocs(t *testing.T) {
	for _, k := range []int{8, 16} {
		ft := build(t, k)
		modes := []Mode{ModeGlobalRandom, ModeClos}
		i := 0
		got := testing.AllocsPerRun(10, func() {
			if err := ft.SetUniformMode(modes[i%2]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if got > 40 {
			t.Errorf("k=%d: SetUniformMode = %.0f allocs, want <= 40", k, got)
		}
	}
}
