package traffic

import (
	"reflect"
	"testing"
	"testing/quick"

	"flattree/internal/fattree"
)

func mustFatTree(t *testing.T, k int) *fattree.FatTree {
	t.Helper()
	f, err := fattree.New(k)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestLocalityPacksContinuously(t *testing.T) {
	f := mustFatTree(t, 4)
	cl, err := MakeClusters(f.Net, f.ServerIDs, Spec{ClusterSize: 4, Placement: Locality, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cl) != 4 {
		t.Fatalf("got %d clusters, want 4", len(cl))
	}
	for c, cluster := range cl {
		for i, sv := range cluster.Servers {
			if sv != f.ServerIDs[c*4+i] {
				t.Fatalf("cluster %d member %d = %d, want %d", c, i, sv, f.ServerIDs[c*4+i])
			}
		}
	}
}

func TestClusterSizeCappedAtNetwork(t *testing.T) {
	f := mustFatTree(t, 4) // 16 servers
	cl, err := MakeClusters(f.Net, f.ServerIDs, Spec{ClusterSize: 1000, Placement: Locality, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cl) != 1 || len(cl[0].Servers) != 16 {
		t.Fatalf("got %d clusters of %d", len(cl), len(cl[0].Servers))
	}
}

// TestPartitionProperties: every placement yields disjoint clusters whose
// union is a prefix-sized subset of the servers, and hot spots are members.
func TestPartitionProperties(t *testing.T) {
	f := mustFatTree(t, 6) // 54 servers
	err := quick.Check(func(seed uint64, placeRaw, sizeRaw uint8) bool {
		placement := Placement(placeRaw % 3)
		size := int(sizeRaw%20) + 2
		cl, err := MakeClusters(f.Net, f.ServerIDs, Spec{ClusterSize: size, Placement: placement, Seed: seed})
		if err != nil {
			return false
		}
		if size > 54 {
			size = 54
		}
		if len(cl) != 54/size {
			return false
		}
		seen := make(map[int]bool)
		for _, c := range cl {
			if len(c.Servers) != size {
				return false
			}
			hot := false
			for _, sv := range c.Servers {
				if seen[sv] {
					return false // overlap
				}
				seen[sv] = true
				if sv == c.Hotspot {
					hot = true
				}
			}
			if !hot {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

// TestWeakLocalityMostlyInPod: with cluster size <= pod size, the bulk of
// every cluster must sit in a single pod (spill only when a pod's free
// servers run out).
func TestWeakLocalityMostlyInPod(t *testing.T) {
	f := mustFatTree(t, 8) // pods of 16 servers
	cl, err := MakeClusters(f.Net, f.ServerIDs, Spec{ClusterSize: 8, Placement: WeakLocality, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	multiPod := 0
	for _, c := range cl {
		pods := make(map[int]int)
		for _, sv := range c.Servers {
			pods[f.Net.Nodes[sv].Pod]++
		}
		if len(pods) > 2 {
			t.Errorf("cluster spans %d pods", len(pods))
		}
		if len(pods) > 1 {
			multiPod++
		}
	}
	// 16 clusters into 8 pods of capacity 2 clusters: spills are rare.
	if multiPod > len(cl)/2 {
		t.Errorf("%d/%d clusters spilled pods", multiPod, len(cl))
	}
}

func TestBroadcastCommodities(t *testing.T) {
	f := mustFatTree(t, 4)
	cl, err := MakeClusters(f.Net, f.ServerIDs, Spec{ClusterSize: 8, Placement: Locality, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	comms := BroadcastCommodities(cl, 0)
	if len(comms) != len(cl)*7 {
		t.Fatalf("got %d commodities, want %d", len(comms), len(cl)*7)
	}
	for _, c := range comms {
		if c.Demand != 1 || c.Src == c.Dst {
			t.Fatalf("bad commodity %+v", c)
		}
	}
}

func TestAllToAllCommodities(t *testing.T) {
	f := mustFatTree(t, 4)
	cl, err := MakeClusters(f.Net, f.ServerIDs, Spec{ClusterSize: 4, Placement: NoLocality, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	comms := AllToAllCommodities(cl, 0)
	if len(comms) != len(cl)*6 { // C(4,2)=6 per cluster
		t.Fatalf("got %d commodities, want %d", len(comms), len(cl)*6)
	}
}

func TestErrors(t *testing.T) {
	f := mustFatTree(t, 4)
	if _, err := MakeClusters(f.Net, f.ServerIDs, Spec{ClusterSize: 1, Placement: Locality}); err == nil {
		t.Error("cluster size 1 should fail")
	}
	if _, err := MakeClusters(f.Net, nil, Spec{ClusterSize: 4, Placement: Locality}); err == nil {
		t.Error("no servers should fail")
	}
	if _, err := MakeClusters(f.Net, f.ServerIDs, Spec{ClusterSize: 4, Placement: Placement(9)}); err == nil {
		t.Error("unknown placement should fail")
	}
}

func TestDeterministicBySeed(t *testing.T) {
	f := mustFatTree(t, 6)
	a, _ := MakeClusters(f.Net, f.ServerIDs, Spec{ClusterSize: 5, Placement: WeakLocality, Seed: 9})
	b, _ := MakeClusters(f.Net, f.ServerIDs, Spec{ClusterSize: 5, Placement: WeakLocality, Seed: 9})
	for i := range a {
		if a[i].Hotspot != b[i].Hotspot {
			t.Fatal("same seed diverged")
		}
		for j := range a[i].Servers {
			if a[i].Servers[j] != b[i].Servers[j] {
				t.Fatal("same seed diverged")
			}
		}
	}
}

// TestPermutation: every server sends to at most one peer and receives from
// at most one, never itself; the pairing is a function of the seed; fewer
// than two servers make no workload.
func TestPermutation(t *testing.T) {
	servers := mustFatTree(t, 4).ServerIDs
	comms := Permutation(servers, 7)
	if len(comms) == 0 || len(comms) > len(servers) {
		t.Fatalf("%d commodities for %d servers", len(comms), len(servers))
	}
	sends, receives := map[int]bool{}, map[int]bool{}
	for _, c := range comms {
		if c.Src == c.Dst || c.Demand != 1 || sends[c.Src] || receives[c.Dst] {
			t.Fatalf("bad commodity %+v", c)
		}
		sends[c.Src], receives[c.Dst] = true, true
	}
	if again := Permutation(servers, 7); !reflect.DeepEqual(again, comms) {
		t.Error("same seed diverged")
	}
	if Permutation(servers[:1], 7) != nil {
		t.Error("a lone server got a workload")
	}
}
