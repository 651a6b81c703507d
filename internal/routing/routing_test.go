package routing

import (
	"testing"

	"flattree/internal/core"
	"flattree/internal/fattree"
	"flattree/internal/jellyfish"
	"flattree/internal/topo"
)

func TestECMPFatTreeCrossPod(t *testing.T) {
	k := 4
	f, err := fattree.New(k)
	if err != nil {
		t.Fatal(err)
	}
	e := NewECMP(f.Net, 0)
	// Edge switches in different pods: 4 hops (edge-agg-core-agg-edge),
	// k/2 * k/2 = 4 equal-cost paths in fat-tree(4).
	src, dst := f.Edges[0][0], f.Edges[1][0]
	paths, err := e.Paths(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Errorf("got %d ECMP paths, want 4", len(paths))
	}
	for _, p := range paths {
		if p.Len() != 4 {
			t.Errorf("path length %d, want 4: %v", p.Len(), p.Nodes)
		}
		if int(p.Nodes[0]) != src || int(p.Nodes[len(p.Nodes)-1]) != dst {
			t.Errorf("path endpoints wrong: %v", p.Nodes)
		}
	}
	if n := numShortestPaths(t, f.Net, src, dst); n != 4 {
		t.Errorf("%d shortest paths, want 4", n)
	}
}

// numShortestPaths counts every shortest path between two switches: ECMP
// with a cap far above any count these tests reach.
func numShortestPaths(t *testing.T, nw *topo.Network, src, dst int) int {
	t.Helper()
	const limit = 1024
	paths, err := NewECMP(nw, limit).Paths(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == limit {
		t.Fatalf("%d->%d: %d paths reach the cap; the count is not exact", src, dst, limit)
	}
	return len(paths)
}

func TestECMPIntraPod(t *testing.T) {
	f, err := fattree.New(6)
	if err != nil {
		t.Fatal(err)
	}
	// Two edges in the same pod: 2 hops via any of the k/2=3 aggs.
	if n := numShortestPaths(t, f.Net, f.Edges[0][0], f.Edges[0][1]); n != 3 {
		t.Errorf("intra-pod paths = %d, want 3", n)
	}
}

func TestECMPCap(t *testing.T) {
	f, err := fattree.New(8)
	if err != nil {
		t.Fatal(err)
	}
	e := NewECMP(f.Net, 5)
	paths, err := e.Paths(f.Edges[0][0], f.Edges[1][0])
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 5 {
		t.Errorf("cap ignored: %d paths", len(paths))
	}
}

func TestECMPRejectsServers(t *testing.T) {
	f, err := fattree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	e := NewECMP(f.Net, 0)
	if _, err := e.Paths(f.ServerIDs[0], f.Edges[0][0]); err == nil {
		t.Error("server endpoint accepted")
	}
}

func TestKSPOnRandomGraph(t *testing.T) {
	j, err := jellyfish.New(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := NewKSP(j.Net, 4)
	src, dst := j.Switches[0], j.Switches[len(j.Switches)-1]
	paths, err := r.Paths(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 || len(paths) > 4 {
		t.Fatalf("got %d paths", len(paths))
	}
	for i := 1; i < len(paths); i++ {
		if paths[i].Cost < paths[i-1].Cost {
			t.Error("paths not sorted by cost")
		}
	}
	if r.Name() != "ksp4" {
		t.Errorf("name = %s", r.Name())
	}
}

// TestFlatTreeECMPRichness: the paper claims Clos mode "benefits
// applications that require rich equal-cost redundant links"; converting to
// global-random mode trades that for shorter paths. Check the path count
// drops while reachability holds.
func TestFlatTreeECMPRichness(t *testing.T) {
	ft, err := core.Build(core.Params{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := ft.Edges[0][0], ft.Edges[4][0]

	closPaths := numShortestPaths(t, ft.Net(), src, dst)
	if err := ft.SetUniformMode(core.ModeGlobalRandom); err != nil {
		t.Fatal(err)
	}
	grPaths := numShortestPaths(t, ft.Net(), src, dst)
	if closPaths <= grPaths {
		t.Errorf("Clos should have more equal-cost paths: clos=%d global=%d", closPaths, grPaths)
	}
}

func TestForwardingTable(t *testing.T) {
	f, err := fattree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	tbl := BuildTable(f.Net)
	// From edge 0/0 toward edge 1/0, the next hops are exactly pod 0's
	// aggregation switches.
	hops := tbl.NextHops(f.Edges[0][0], f.Edges[1][0])
	if len(hops) != 2 {
		t.Fatalf("got %d next hops, want 2", len(hops))
	}
	want := map[int32]bool{int32(f.Aggs[0][0]): true, int32(f.Aggs[0][1]): true}
	for _, h := range hops {
		if !want[h] {
			t.Errorf("unexpected next hop %d", h)
		}
	}
	// Walking the table always reaches the destination in dist hops.
	src, dst := f.Edges[0][0], f.Edges[3][1]
	cur := src
	for steps := 0; cur != dst; steps++ {
		if steps > 10 {
			t.Fatal("table walk did not converge")
		}
		hops := tbl.NextHops(cur, dst)
		if len(hops) == 0 {
			t.Fatalf("no next hop from %d to %d", cur, dst)
		}
		cur = int(hops[0])
	}
	if tbl.NextHops(src, src) != nil {
		t.Error("self next hops should be empty")
	}
	if tbl.NextHops(f.ServerIDs[0], dst) != nil {
		t.Error("server lookup should be empty")
	}
}
