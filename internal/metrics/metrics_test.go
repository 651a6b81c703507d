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

// TestKernelMatchesReference holds the bit-parallel sweep to the per-source
// oracle, field for field and bit for bit: on the four Figure 5/6
// topologies over a k sweep (k=12 and up put more than 64 hosting switches
// through several batches), on a flat-tree with pods in three different
// modes, on a network degraded by link and switch failures, which hosts
// unequal server counts per switch, and on every network again restricted
// to two of each three servers, the kind of subset faults.Analyze passes.
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
