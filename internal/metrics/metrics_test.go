package metrics_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"flattree/internal/core"
	"flattree/internal/fattree"
	"flattree/internal/faults"
	"flattree/internal/jellyfish"
	"flattree/internal/metrics"
	"flattree/internal/topo"
)

// fatTreeAPL computes the closed-form fat-tree average path length:
// same-edge pairs at 2 hops, same-pod pairs at 4, cross-pod pairs at 6.
func fatTreeAPL(k int) float64 {
	n := float64(k * k * k / 4)
	perEdge := float64(k / 2)
	perPod := float64(k * k / 4)
	pairs := n * (n - 1) / 2
	sameEdge := (n / perEdge) * perEdge * (perEdge - 1) / 2
	samePod := (n/perPod)*perPod*(perPod-1)/2 - sameEdge
	cross := pairs - sameEdge - samePod
	return (2*sameEdge + 4*samePod + 6*cross) / pairs
}

func TestFatTreeAPLMatchesClosedForm(t *testing.T) {
	for _, k := range []int{4, 6, 8, 12} {
		f, err := fattree.New(k)
		if err != nil {
			t.Fatal(err)
		}
		st, err := metrics.ServerPathLengths(f.Net, f.Net.Servers())
		if err != nil {
			t.Fatal(err)
		}
		want := fatTreeAPL(k)
		if math.Abs(st.Global-want) > 1e-9 {
			t.Errorf("k=%d: APL = %g, want %g", k, st.Global, want)
		}
		if st.Max != 6 {
			t.Errorf("k=%d: max = %d, want 6", k, st.Max)
		}
		// Intra-pod: same-edge 2, otherwise 4.
		perEdge := float64(k / 2)
		perPod := float64(k * k / 4)
		podPairs := perPod * (perPod - 1) / 2
		sameEdge := (perPod / perEdge) * perEdge * (perEdge - 1) / 2
		wantPod := (2*sameEdge + 4*(podPairs-sameEdge)) / podPairs
		if math.Abs(st.IntraPod-wantPod) > 1e-9 {
			t.Errorf("k=%d: intra-pod APL = %g, want %g", k, st.IntraPod, wantPod)
		}
	}
}

func TestHistogramSumsToAllPairs(t *testing.T) {
	f, err := fattree.New(6)
	if err != nil {
		t.Fatal(err)
	}
	st, err := metrics.ServerPathLengths(f.Net, f.Net.Servers())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	var weighted float64
	for d, c := range st.Histogram {
		total += c
		weighted += float64(d) * float64(c)
	}
	n := int64(6 * 6 * 6 / 4)
	if total != n*(n-1)/2 {
		t.Errorf("histogram total %d, want %d", total, n*(n-1)/2)
	}
	if math.Abs(weighted/float64(total)-st.Global) > 1e-9 {
		t.Error("histogram mean disagrees with Global")
	}
}

func TestTwoServersOneSwitch(t *testing.T) {
	b := topo.NewBuilder("tiny")
	sw := b.AddNode(topo.EdgeSwitch, 0, 0, 4)
	s0 := b.AddNode(topo.Server, 0, 0, 1)
	s1 := b.AddNode(topo.Server, 0, 1, 1)
	b.AddLink(s0, sw, topo.TagClos)
	b.AddLink(s1, sw, topo.TagClos)
	nw := b.Build()
	st, err := metrics.ServerPathLengths(nw, nw.Servers())
	if err != nil {
		t.Fatal(err)
	}
	if st.Global != 2 || st.IntraPod != 2 {
		t.Errorf("stats = %+v, want APL 2", st)
	}
}

func TestDisconnectedError(t *testing.T) {
	b := topo.NewBuilder("split")
	sw0 := b.AddNode(topo.EdgeSwitch, 0, 0, 4)
	sw1 := b.AddNode(topo.EdgeSwitch, 1, 0, 4)
	s0 := b.AddNode(topo.Server, 0, 0, 1)
	s1 := b.AddNode(topo.Server, 1, 1, 1)
	b.AddLink(s0, sw0, topo.TagClos)
	b.AddLink(s1, sw1, topo.TagClos)
	nw := b.Build()
	_, err := metrics.ServerPathLengths(nw, nw.Servers())
	if err == nil {
		t.Fatal("disconnected network should error")
	}
	if want := fmt.Sprintf("switches %d and %d disconnected", sw0, sw1); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the pair (%q)", err, want)
	}
}

func TestDetachedServerError(t *testing.T) {
	b := topo.NewBuilder("detached")
	sw := b.AddNode(topo.EdgeSwitch, 0, 0, 4)
	s0 := b.AddNode(topo.Server, 0, 0, 1)
	b.AddNode(topo.Server, 0, 1, 1)
	b.AddLink(s0, sw, topo.TagClos)
	nw := b.Build()
	if _, err := metrics.ServerPathLengths(nw, nw.Servers()); err == nil || !strings.Contains(err.Error(), "detached") {
		t.Errorf("detached server: err = %v", err)
	}
}

// TestServerListErrors: an ID out of range, a switch and a server listed
// twice are each an error naming the ID, not a panic or a silent miscount.
func TestServerListErrors(t *testing.T) {
	f, err := fattree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	sv, sw := f.Net.Servers(), f.Net.Switches()[0]
	for _, tc := range []struct {
		name    string
		servers []int
		want    string
	}{
		{"past the end", []int{sv[0], 100000}, "server 100000 out of range"},
		{"negative", []int{-1, sv[0]}, "server -1 out of range"},
		{"switch", []int{sw, sv[0]}, fmt.Sprintf("node %d is not a server", sw)},
		{"listed twice", []int{sv[0], sv[1], sv[0]}, fmt.Sprintf("server %d listed twice", sv[0])},
	} {
		_, err := metrics.ServerPathLengths(f.Net, tc.servers)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestSingleServerError(t *testing.T) {
	b := topo.NewBuilder("one")
	sw := b.AddNode(topo.EdgeSwitch, 0, 0, 4)
	s0 := b.AddNode(topo.Server, 0, 0, 1)
	b.AddLink(s0, sw, topo.TagClos)
	nw := b.Build()
	if _, err := metrics.ServerPathLengths(nw, nw.Servers()); err == nil {
		t.Error("single server should error")
	}
}

// referencePathLengths is the per-source oracle the kernel is checked
// against: one graph.BFSInto per hosting switch of the given servers over
// the full node graph, floating-point pair sums accumulated in ascending
// source order — the body ServerPathLengths had before the bit-parallel
// kernel.
func referencePathLengths(nw *topo.Network, servers []int) (metrics.PathLengthStats, error) {
	g := nw.Graph()
	n := g.N()
	type podCount struct {
		pod   int
		count int64
	}
	var hostSwitches []int
	total := make([]int64, n)
	byPod := make([][]podCount, n)
	for _, sv := range servers {
		sw := nw.HostSwitch(sv)
		if sw < 0 {
			return metrics.PathLengthStats{}, fmt.Errorf("server %d detached", sv)
		}
		if total[sw] == 0 {
			hostSwitches = append(hostSwitches, sw)
		}
		total[sw]++
		pod := nw.Nodes[sv].Pod
		found := false
		for i := range byPod[sw] {
			if byPod[sw][i].pod == pod {
				byPod[sw][i].count++
				found = true
			}
		}
		if !found {
			byPod[sw] = append(byPod[sw], podCount{pod, 1})
		}
	}
	var sumGlobal, pairsGlobal, sumPod, pairsPod float64
	var hist []int64
	bump := func(d int, cnt int64) {
		for d >= len(hist) {
			hist = append(hist, 0)
		}
		hist[d] += cnt
	}
	dist := make([]int32, n)
	queue := make([]int32, n)
	for i, s := range hostSwitches {
		g.BFSInto(s, dist, queue)
		cs := total[s]
		if same := cs * (cs - 1) / 2; same > 0 {
			sumGlobal += float64(same) * 2
			pairsGlobal += float64(same)
			bump(2, same)
		}
		for _, pc := range byPod[s] {
			samePod := pc.count * (pc.count - 1) / 2
			sumPod += float64(samePod) * 2
			pairsPod += float64(samePod)
		}
		for _, t := range hostSwitches[i+1:] {
			if dist[t] < 0 {
				return metrics.PathLengthStats{}, fmt.Errorf("switches %d and %d disconnected", s, t)
			}
			hops := int(dist[t]) + 2
			cnt := cs * total[t]
			sumGlobal += float64(cnt) * float64(hops)
			pairsGlobal += float64(cnt)
			bump(hops, cnt)
			for _, pa := range byPod[s] {
				for _, pb := range byPod[t] {
					if pa.pod == pb.pod {
						cnt := pa.count * pb.count
						sumPod += float64(cnt) * float64(hops)
						pairsPod += float64(cnt)
					}
				}
			}
		}
	}
	st := metrics.PathLengthStats{
		Global:    sumGlobal / pairsGlobal,
		IntraPod:  math.NaN(),
		Max:       len(hist) - 1,
		Histogram: hist,
	}
	if pairsPod > 0 {
		st.IntraPod = sumPod / pairsPod
	}
	return st, nil
}

// sameStats is reflect.DeepEqual except that two NaN IntraPod values (a
// network without intra-pod pairs) count as equal.
func sameStats(a, b metrics.PathLengthStats) bool {
	if math.IsNaN(a.IntraPod) && math.IsNaN(b.IntraPod) {
		a.IntraPod, b.IntraPod = 0, 0
	}
	return reflect.DeepEqual(a, b)
}

// handBuilt builds a network of n switches joined by the given
// switch-switch links, where switch i hosts one server per entry of pods(i),
// with that entry as its home pod.
func handBuilt(name string, n int, links [][2]int, pods func(i int) []int) *topo.Network {
	b := topo.NewBuilder(name)
	ports := make([]int, n)
	for _, l := range links {
		ports[l[0]]++
		ports[l[1]]++
	}
	for i := range ports {
		b.AddNode(topo.EdgeSwitch, -1, i, ports[i]+len(pods(i)))
	}
	for i := range n {
		for _, pod := range pods(i) {
			b.AddLink(b.AddNode(topo.Server, pod, b.NumNodes()-n, 1), i, topo.TagClos)
		}
	}
	for _, l := range links {
		b.AddLink(l[0], l[1], topo.TagClos)
	}
	return b.Build()
}

// distinctCountFabric is the kernel's worst case for grouping sources by
// server count: 70 hosting switches, switch i with i+1 servers from two or
// three home pods, so every source of a batch is a group of its own. The
// switches form a ring with chords.
func distinctCountFabric() *topo.Network {
	const n = 70
	var links [][2]int
	for i := range n {
		links = append(links, [2]int{i, (i + 1) % n})
		if i%3 == 0 {
			links = append(links, [2]int{i, (i + 23) % n})
		}
	}
	return handBuilt("distinct counts", n, links, func(i int) []int {
		pods := make([]int, i+1)
		for s := range pods {
			pods[s] = (i + s%(2+i%2)) % 5
		}
		return pods
	})
}

// ringAndLine are the pull sweep's worst case: a ring of 40 switches and a
// line of 100, so a sweep runs 20 and 99 levels with a few fresh switches
// each. Every fifth (fourth) switch only relays; the others host one or two
// servers of a pod per run of ten switches, and the line's 75 hosts need two
// batches.
func ringAndLine() (ring, line *topo.Network) {
	pods := func(relay int) func(i int) []int {
		return func(i int) []int {
			switch {
			case i%relay == relay-1:
				return nil
			case i%2 == 1:
				return []int{i / 10, i / 10}
			}
			return []int{i / 10}
		}
	}
	var ringLinks, lineLinks [][2]int
	for i := range 40 {
		ringLinks = append(ringLinks, [2]int{i, (i + 1) % 40})
	}
	for i := range 99 {
		lineLinks = append(lineLinks, [2]int{i, i + 1})
	}
	return handBuilt("ring", 40, ringLinks, pods(5)), handBuilt("line", 100, lineLinks, pods(4))
}

// TestKernelMatchesReference holds the bit-parallel sweep to the per-source
// oracle, field for field and bit for bit: on the four Figure 5/6
// topologies over a k sweep (k=12 and up put more than 64 hosting switches
// through several batches), on a flat-tree with pods in three different
// modes, on a network degraded by link and switch failures, which hosts
// unequal server counts per switch, on the hand-built worst cases for
// grouping (distinctCountFabric) and for the pull sweep (ringAndLine), and
// on every network again restricted to two of each three servers, the kind
// of subset faults.Analyze passes.
func TestKernelMatchesReference(t *testing.T) {
	nets := map[string]*topo.Network{}
	for _, k := range []int{4, 6, 8, 10, 12, 14, 16} {
		f, err := fattree.New(k)
		if err != nil {
			t.Fatal(err)
		}
		nets[fmt.Sprintf("fat-tree k=%d", k)] = f.Net
		j, err := jellyfish.New(k, uint64(k))
		if err != nil {
			t.Fatal(err)
		}
		nets[fmt.Sprintf("jellyfish k=%d", k)] = j.Net
		for _, mode := range []core.Mode{core.ModeGlobalRandom, core.ModeLocalRandom} {
			ft, err := core.Build(core.Params{K: k})
			if err != nil {
				t.Fatal(err)
			}
			if err := ft.SetUniformMode(mode); err != nil {
				t.Fatal(err)
			}
			nets[fmt.Sprintf("flat-tree %s k=%d", mode, k)] = ft.Net()
		}
	}
	hybrid, err := core.Build(core.Params{K: 12})
	if err != nil {
		t.Fatal(err)
	}
	modes := make([]core.Mode, 12)
	for p := range modes {
		modes[p] = core.Mode(p % 3)
	}
	if err := hybrid.SetModes(modes); err != nil {
		t.Fatal(err)
	}
	nets["flat-tree hybrid k=12"] = hybrid.Net()
	degraded, err := faults.Degrade(hybrid.Net(), faults.Scenario{LinkFraction: 0.1, SwitchFraction: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	nets["degraded hybrid k=12"] = degraded
	nets["distinct counts"] = distinctCountFabric()
	ring, line := ringAndLine()
	nets["ring"], nets["line"] = ring, line

	for name, nw := range nets {
		var subset []int
		for i, sv := range nw.Servers() {
			if i%3 != 2 {
				subset = append(subset, sv)
			}
		}
		for _, servers := range [][]int{nw.Servers(), subset} {
			want, err := referencePathLengths(nw, servers)
			if err != nil {
				t.Fatalf("%s (%d servers): reference: %v", name, len(servers), err)
			}
			got, err := metrics.ServerPathLengths(nw, servers)
			if err != nil {
				t.Fatalf("%s (%d servers): %v", name, len(servers), err)
			}
			if !sameStats(got, want) {
				t.Errorf("%s (%d servers): stats %+v differ from the reference %+v", name, len(servers), got, want)
			}
		}
	}
}

func TestWrappers(t *testing.T) {
	f, err := fattree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := metrics.AveragePathLength(f.Net)
	if err != nil {
		t.Fatal(err)
	}
	p, err := metrics.IntraPodAveragePathLength(f.Net)
	if err != nil {
		t.Fatal(err)
	}
	if g <= p {
		t.Errorf("global APL %g should exceed intra-pod %g in a fat-tree", g, p)
	}
}

// TestServerPathLengthsAllocs: a call allocates the same number of times
// whatever its batch count — the group buffers are sized once per call —
// on fat-tree, Jellyfish and global flat-tree at k = 8, 16 and 32, which
// run 1, 2 and 8 batches of hosting switches.
func TestServerPathLengthsAllocs(t *testing.T) {
	builds := map[string]func(k int) (*topo.Network, error){
		"fat-tree": func(k int) (*topo.Network, error) {
			f, err := fattree.New(k)
			if err != nil {
				return nil, err
			}
			return f.Net, nil
		},
		"jellyfish": func(k int) (*topo.Network, error) {
			j, err := jellyfish.New(k, 1)
			if err != nil {
				return nil, err
			}
			return j.Net, nil
		},
		"flat-tree": func(k int) (*topo.Network, error) {
			ft, err := core.Build(core.Params{K: k})
			if err != nil {
				return nil, err
			}
			if err := ft.SetUniformMode(core.ModeGlobalRandom); err != nil {
				return nil, err
			}
			return ft.Net(), nil
		},
	}
	for name, build := range builds {
		var counts []float64
		for _, k := range []int{8, 16, 32} {
			nw, err := build(k)
			if err != nil {
				t.Fatal(err)
			}
			counts = append(counts, testing.AllocsPerRun(3, func() {
				if _, err := metrics.ServerPathLengths(nw, nw.Servers()); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if counts[0] != counts[1] || counts[1] != counts[2] {
			t.Errorf("%s: %v allocs per call at k = 8, 16, 32; want them equal", name, counts)
		}
	}
}
