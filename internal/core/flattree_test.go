package core

import (
	"fmt"
	"sort"
	"testing"

	"flattree/internal/converter"
	"flattree/internal/fattree"
	"flattree/internal/topo"
)

func build(t *testing.T, k int) *FlatTree {
	t.Helper()
	ft, err := Build(Params{K: k})
	if err != nil {
		t.Fatalf("Build(k=%d): %v", k, err)
	}
	return ft
}

func linkSet(nw *topo.Network) map[[2]int]int {
	s := make(map[[2]int]int)
	for _, l := range nw.Links {
		a, b := l.A, l.B
		if a > b {
			a, b = b, a
		}
		s[[2]int{a, b}]++
	}
	return s
}

// TestClosModeEqualsFatTree verifies the headline convertibility invariant:
// with all converters in Default, flat-tree's effective network is exactly
// the fat-tree built from the same equipment — same node numbering, same
// link multiset.
func TestClosModeEqualsFatTree(t *testing.T) {
	for _, k := range []int{4, 6, 8, 10, 12, 16} {
		ft := build(t, k)
		fat, err := fattree.New(k)
		if err != nil {
			t.Fatal(err)
		}
		got, want := linkSet(ft.Net()), linkSet(fat.Net)
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d distinct links, fat-tree has %d", k, len(got), len(want))
		}
		for l, c := range want {
			if got[l] != c {
				t.Fatalf("k=%d: link %v multiplicity %d, want %d", k, l, got[l], c)
			}
		}
	}
}

func TestDefaultMN(t *testing.T) {
	cases := []struct{ k, m, n int }{
		{4, 1, 1}, {6, 1, 2}, {8, 1, 2}, {10, 1, 3}, {12, 2, 3},
		{16, 2, 4}, {24, 3, 6}, {32, 4, 8},
	}
	for _, c := range cases {
		m, n := DefaultMN(c.k)
		if m != c.m || n != c.n {
			t.Errorf("DefaultMN(%d) = (%d,%d), want (%d,%d)", c.k, m, n, c.m, c.n)
		}
		if m+n > c.k/2 {
			t.Errorf("DefaultMN(%d): m+n=%d exceeds k/2", c.k, m+n)
		}
	}
}

// TestModesValidNetworks checks every uniform mode yields a valid connected
// network with correct equipment counts for a range of k, including odd-d
// cases (k=6,10) where the middle blade column has unused side connectors.
func TestModesValidNetworks(t *testing.T) {
	for _, k := range []int{4, 6, 8, 10, 12, 14, 16} {
		ft := build(t, k)
		for _, mode := range []Mode{ModeClos, ModeGlobalRandom, ModeLocalRandom} {
			if err := ft.SetUniformMode(mode); err != nil {
				t.Fatalf("k=%d mode=%s: %v", k, mode, err)
			}
			nw := ft.Net()
			if err := nw.Validate(); err != nil {
				t.Fatalf("k=%d mode=%s: %v", k, mode, err)
			}
			st := nw.Stats()
			if st.Servers != k*k*k/4 {
				t.Fatalf("k=%d mode=%s: %d servers, want %d", k, mode, st.Servers, k*k*k/4)
			}
			if st.CoreSwitches != k*k/4 || st.EdgeSwitches != k*k/2 || st.AggSwitches != k*k/2 {
				t.Fatalf("k=%d mode=%s: switch counts %+v wrong", k, mode, st)
			}
			// Same equipment: total link count must equal fat-tree's
			// (every physical cable maps to at most one effective link and
			// in uniform modes every splice chain terminates on devices,
			// except unpaired side stubs which carry no device cable).
			wantLinks := k*k*k/4 + k*k*k/4 + k*k*k/4 // host + edge-agg + agg-core equivalents
			if st.Links != wantLinks {
				t.Fatalf("k=%d mode=%s: %d links, want %d", k, mode, st.Links, wantLinks)
			}
		}
	}
}

// serverCountPerCore returns how many servers each core switch hosts.
func serverCountPerCore(ft *FlatTree) []int {
	nw := ft.Net()
	hosts := make(map[int]int)
	for _, sv := range nw.Servers() {
		hosts[nw.HostSwitch(sv)]++
	}
	counts := make([]int, len(ft.Cores))
	for i, c := range ft.Cores {
		counts[i] = hosts[c]
	}
	return counts
}

// TestProperty1ServerUniformity checks §2.3 Property 1: in global-random
// mode, servers are distributed uniformly across the core switches. For
// pattern 1 the rotation tiles the core group exactly, so the distribution
// is perfectly uniform (2m servers per core); pattern 2 may deviate by a
// bounded wrap-around remainder.
func TestProperty1ServerUniformity(t *testing.T) {
	for _, k := range []int{8, 12, 16, 24} {
		for _, pat := range []Pattern{Pattern1, Pattern2} {
			m, n := DefaultMN(k)
			ft, err := Build(Params{K: k, M: m, N: n, Pattern: pat})
			if err != nil {
				t.Fatal(err)
			}
			if err := ft.SetUniformMode(ModeGlobalRandom); err != nil {
				t.Fatal(err)
			}
			counts := serverCountPerCore(ft)
			min, max := counts[0], counts[0]
			sum := 0
			for _, c := range counts {
				if c < min {
					min = c
				}
				if c > max {
					max = c
				}
				sum += c
			}
			if sum != k*k*k/4-serversNotOnCores(ft) {
				t.Fatalf("k=%d %s: core-hosted servers %d inconsistent", k, pat, sum)
			}
			if pat == Pattern1 {
				// §2.3 Property 1 holds exactly: pattern 1's blocks tile
				// each core group, giving every core exactly 2m servers.
				if min != max || min != 2*m {
					t.Errorf("k=%d pattern1: core server counts [%d,%d], want exactly %d", k, min, max, 2*m)
				}
			} else {
				// Pattern 2's rotation is only as uniform as its offsets;
				// check the wiring exactly matches the specified offsets.
				g := k / 2
				want := make([]int, len(counts))
				for pod := 0; pod < k; pod++ {
					o := (pod * (m + 1)) % g
					for pair := 0; pair < k/2; pair++ {
						for i := 0; i < m; i++ {
							want[pair*g+(o+i)%g]++
						}
					}
				}
				for c := range counts {
					if counts[c] != want[c] {
						t.Fatalf("k=%d pattern2: core %d hosts %d servers, spec says %d", k, c, counts[c], want[c])
					}
				}
			}
		}
	}
}

func serversNotOnCores(ft *FlatTree) int {
	nw := ft.Net()
	n := 0
	for _, sv := range nw.Servers() {
		if nw.Nodes[nw.HostSwitch(sv)].Kind != topo.CoreSwitch {
			n++
		}
	}
	return n
}

// TestProperty2LinkTypeUniformity checks §2.3 Property 2: each core switch
// has equal numbers of links of the same type (core-server, core-edge,
// core-agg) in global-random mode under pattern 1 with the paper's default
// m, n (where gcd(m, k/2) divides n and k/2-m-n).
func TestProperty2LinkTypeUniformity(t *testing.T) {
	for _, k := range []int{8, 16, 24, 32} {
		m, n := DefaultMN(k)
		ft, err := Build(Params{K: k, M: m, N: n, Pattern: Pattern1})
		if err != nil {
			t.Fatal(err)
		}
		if err := ft.SetUniformMode(ModeGlobalRandom); err != nil {
			t.Fatal(err)
		}
		nw := ft.Net()
		type counts struct{ server, edge, agg int }
		per := make(map[int]*counts)
		for _, c := range ft.Cores {
			per[c] = &counts{}
		}
		for _, l := range nw.Links {
			var core, other int
			if nw.Nodes[l.A].Kind == topo.CoreSwitch {
				core, other = l.A, l.B
			} else if nw.Nodes[l.B].Kind == topo.CoreSwitch {
				core, other = l.B, l.A
			} else {
				continue
			}
			switch nw.Nodes[other].Kind {
			case topo.Server:
				per[core].server++
			case topo.EdgeSwitch:
				per[core].edge++
			case topo.AggSwitch:
				per[core].agg++
			case topo.CoreSwitch:
				t.Fatalf("k=%d: unexpected core-core link %d-%d", k, l.A, l.B)
			}
		}
		var ref *counts
		for _, c := range ft.Cores {
			if ref == nil {
				ref = per[c]
				continue
			}
			if *per[c] != *ref {
				t.Fatalf("k=%d: core link-type counts differ: %+v vs %+v", k, *per[c], *ref)
			}
		}
		if ref.server != 2*m || ref.edge != 2*n || ref.agg != k-2*m-2*n {
			t.Errorf("k=%d: per-core counts %+v, want server=%d edge=%d agg=%d",
				k, *ref, 2*m, 2*n, k-2*m-2*n)
		}
	}
}

// TestGlobalRandomUsesSideLinks verifies the side connectors materialize as
// inter-pod links in global-random mode, with the §2.5 mix of peer-wise
// (E-E', A-A') and crossed (E-A') connections. Crossed links require an odd
// converter row, i.e. m >= 2, so use k=16 (m=2).
func TestGlobalRandomUsesSideLinks(t *testing.T) {
	ft := build(t, 16)
	if err := ft.SetUniformMode(ModeGlobalRandom); err != nil {
		t.Fatal(err)
	}
	nw := ft.Net()
	var peerWise, crossed int
	for _, l := range nw.Links {
		if l.Tag != topo.TagSide {
			continue
		}
		ka, kb := nw.Nodes[l.A].Kind, nw.Nodes[l.B].Kind
		pa, pb := nw.Nodes[l.A].Pod, nw.Nodes[l.B].Pod
		if pa == pb {
			t.Fatalf("side link %d-%d within pod %d", l.A, l.B, pa)
		}
		if !adjacentPods(pa, pb, ft.Params.K) {
			t.Fatalf("side link between non-adjacent pods %d and %d", pa, pb)
		}
		if ka == kb {
			peerWise++
		} else {
			crossed++
		}
	}
	if peerWise == 0 || crossed == 0 {
		t.Fatalf("want both peer-wise and crossed side links, got %d peer-wise, %d crossed", peerWise, crossed)
	}
}

func adjacentPods(a, b, k int) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d == 1 || d == k-1
}

// TestLocalRandomServerSplit verifies Figure 2d's property: in local-random
// mode with n = k/4, half of each pod's servers sit on edge switches and
// half on aggregation switches, and no server sits on a core.
func TestLocalRandomServerSplit(t *testing.T) {
	for _, k := range []int{8, 16} {
		ft := build(t, k)
		if err := ft.SetUniformMode(ModeLocalRandom); err != nil {
			t.Fatal(err)
		}
		nw := ft.Net()
		var onEdge, onAgg, onCore int
		for _, sv := range nw.Servers() {
			switch nw.Nodes[nw.HostSwitch(sv)].Kind {
			case topo.EdgeSwitch:
				onEdge++
			case topo.AggSwitch:
				onAgg++
			case topo.CoreSwitch:
				onCore++
			}
		}
		total := k * k * k / 4
		if onCore != 0 {
			t.Errorf("k=%d: %d servers on cores in local mode", k, onCore)
		}
		if onEdge != total/2 || onAgg != total/2 {
			t.Errorf("k=%d: server split edge=%d agg=%d, want %d/%d", k, onEdge, onAgg, total/2, total/2)
		}
	}
}

// TestHybridZoneModes verifies per-pod mode assignment: pods in a Clos zone
// keep Clos wiring while pods in a global-random zone convert, and boundary
// 6-port converters fall back to Local instead of dangling.
func TestHybridZoneModes(t *testing.T) {
	k := 8
	ft := build(t, k)
	modes := make([]Mode, k)
	for p := 0; p < k/2; p++ {
		modes[p] = ModeGlobalRandom
	}
	for p := k / 2; p < k; p++ {
		modes[p] = ModeClos
	}
	if err := ft.SetModes(modes); err != nil {
		t.Fatal(err)
	}
	nw := ft.Net()
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	// No Clos-zone pod may host servers anywhere but its edge switches.
	for _, sv := range nw.Servers() {
		host := nw.HostSwitch(sv)
		pod := nw.Nodes[sv].Pod
		if modes[pod] == ModeClos && nw.Nodes[host].Kind != topo.EdgeSwitch {
			t.Fatalf("server %d in Clos pod %d hosted on %s", sv, pod, nw.Nodes[host].Kind)
		}
	}
	// Boundary converters (peer pod in Clos zone) must be Local, interior
	// global-zone 6-ports must be Side/Cross.
	for id, ci := range ft.Convs {
		if ci.Blade != BladeB || modes[ci.Pod] != ModeGlobalRandom {
			continue
		}
		cfg := ft.Configs()[id]
		peerGlobal := ci.Peer >= 0 && modes[ft.Convs[ci.Peer].Pod] == ModeGlobalRandom
		if peerGlobal && cfg != converter.Side && cfg != converter.Cross {
			t.Fatalf("conv %d (pod %d): config %s, want side/cross", id, ci.Pod, cfg)
		}
		if !peerGlobal && cfg != converter.Local {
			t.Fatalf("boundary conv %d (pod %d): config %s, want local", id, ci.Pod, cfg)
		}
	}
}

// TestSidePairingIsInvolution checks the §2.5 shifting pattern: pairing is
// symmetric, row-preserving, and within a row of the right blade each
// column is used exactly once.
func TestSidePairingIsInvolution(t *testing.T) {
	for _, k := range []int{4, 6, 8, 10, 16} {
		ft := build(t, k)
		seen := make(map[string]int)
		for id, ci := range ft.Convs {
			if ci.Blade != BladeB || ci.Peer < 0 {
				continue
			}
			peer := ft.Convs[ci.Peer]
			if int(peer.Peer) != id {
				t.Fatalf("k=%d: pairing not symmetric at conv %d", k, id)
			}
			if peer.Row != ci.Row {
				t.Fatalf("k=%d: pairing changes row %d -> %d", k, ci.Row, peer.Row)
			}
			if !adjacentPods(ci.Pod, peer.Pod, k) {
				t.Fatalf("k=%d: pairing between non-adjacent pods %d,%d", k, ci.Pod, peer.Pod)
			}
			key := fmt.Sprintf("%d/%d/%d", ci.Pod, ci.Row, ci.Col)
			seen[key]++
			if seen[key] > 1 {
				t.Fatalf("k=%d: converter %s paired twice", k, key)
			}
		}
	}
}

// TestLinePlant verifies the Line option: pod 0's left and pod k-1's right
// blade-B converters stay unpaired and global-random mode still produces a
// valid network.
func TestLinePlant(t *testing.T) {
	k := 8
	ft, err := Build(Params{K: k, Line: true})
	if err != nil {
		t.Fatal(err)
	}
	left := (k/2 + 1) / 2
	for _, ci := range ft.Convs {
		if ci.Blade != BladeB {
			continue
		}
		onLeft := ci.Col < left
		if ci.Pod == 0 && onLeft && ci.Peer >= 0 {
			t.Fatalf("line: pod 0 left conv paired")
		}
		if ci.Pod == k-1 && !onLeft && ci.Peer >= 0 {
			t.Fatalf("line: pod k-1 right conv paired")
		}
	}
	if err := ft.SetUniformMode(ModeGlobalRandom); err != nil {
		t.Fatal(err)
	}
	if err := ft.Net().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConfigsDeterministic: rebuilding with the same modes yields the same
// link multiset (construction is fully deterministic; there is no RNG).
func TestConfigsDeterministic(t *testing.T) {
	a := build(t, 10)
	b := build(t, 10)
	if err := a.SetUniformMode(ModeGlobalRandom); err != nil {
		t.Fatal(err)
	}
	if err := b.SetUniformMode(ModeGlobalRandom); err != nil {
		t.Fatal(err)
	}
	la, lb := linkSet(a.Net()), linkSet(b.Net())
	if len(la) != len(lb) {
		t.Fatalf("link sets differ in size: %d vs %d", len(la), len(lb))
	}
	keys := make([][2]int, 0, len(la))
	for k := range la {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		if la[k] != lb[k] {
			t.Fatalf("link %v multiplicity %d vs %d", k, la[k], lb[k])
		}
	}
}

func TestBuildRejectsBadParams(t *testing.T) {
	for _, p := range []Params{
		{K: 3}, {K: 0}, {K: 5}, {K: 8, M: 3, N: 3}, {K: 8, M: -1, N: 2},
	} {
		if _, err := Build(p); err == nil {
			t.Errorf("Build(%+v) succeeded, want error", p)
		}
	}
}

// TestParseModeInvertsString: ParseMode(m.String()) is m for every mode,
// and any other name is an error.
func TestParseModeInvertsString(t *testing.T) {
	for _, m := range []Mode{ModeClos, ModeGlobalRandom, ModeLocalRandom} {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, s := range []string{"hybrid", "", "Clos", "mode(3)"} {
		if _, err := ParseMode(s); err == nil {
			t.Errorf("ParseMode(%q) accepted", s)
		}
	}
}
