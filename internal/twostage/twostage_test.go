package twostage

import (
	"testing"

	"flattree/internal/core"
	"flattree/internal/topo"
)

func TestEquipmentAndServerDistribution(t *testing.T) {
	for _, k := range []int{8, 12, 16} {
		_, n := core.DefaultMN(k)
		ts, err := New(k, n, 5)
		if err != nil {
			t.Fatal(err)
		}
		st := ts.Net.Stats()
		if st.Servers != k*k*k/4 {
			t.Errorf("k=%d: %d servers", k, st.Servers)
		}
		if st.CoreSwitches != k*k/4 || st.EdgeSwitches != k*k/2 || st.AggSwitches != k*k/2 {
			t.Errorf("k=%d: switch counts %+v", k, st)
		}
		// Server distribution matches flat-tree local mode exactly.
		hosts := hostedCounts(ts.Net)
		for p := 0; p < k; p++ {
			for j := 0; j < k/2; j++ {
				if c := hosts[ts.Edges[p][j]]; c != k/2-n {
					t.Fatalf("k=%d: edge %d/%d hosts %d, want %d", k, p, j, c, k/2-n)
				}
				if c := hosts[ts.Aggs[p][j]]; c != n {
					t.Fatalf("k=%d: agg %d/%d hosts %d, want %d", k, p, j, c, n)
				}
			}
		}
		if err := ts.Net.Validate(); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

func TestIntraPodLinkBudget(t *testing.T) {
	k := 8
	_, n := core.DefaultMN(k)
	ts, err := New(k, n, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Each pod must contain exactly (k/2)^2 internal switch-switch links —
	// the same as flat-tree's edge-agg mesh.
	intra := make(map[int]int)
	for _, l := range ts.Net.Links {
		na, nb := ts.Net.Nodes[l.A], ts.Net.Nodes[l.B]
		if na.Kind.IsSwitch() && nb.Kind.IsSwitch() && na.Pod >= 0 && na.Pod == nb.Pod {
			intra[na.Pod]++
		}
	}
	for p := 0; p < k; p++ {
		if intra[p] != k*k/4 {
			t.Errorf("pod %d has %d internal links, want %d", p, intra[p], k*k/4)
		}
	}
}

func TestUplinkBudget(t *testing.T) {
	k := 8
	_, n := core.DefaultMN(k)
	ts, err := New(k, n, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Links leaving a pod: at most the flat-tree budget k^2/4 per pod
	// (self pairs dropped during stub matching may lose a couple).
	up := make(map[int]int)
	for _, l := range ts.Net.Links {
		na, nb := ts.Net.Nodes[l.A], ts.Net.Nodes[l.B]
		if !na.Kind.IsSwitch() || !nb.Kind.IsSwitch() {
			continue
		}
		if na.Pod != nb.Pod {
			if na.Pod >= 0 {
				up[na.Pod]++
			}
			if nb.Pod >= 0 {
				up[nb.Pod]++
			}
		}
	}
	for p := 0; p < k; p++ {
		if up[p] > k*k/4 || up[p] < k*k/4-4 {
			t.Errorf("pod %d has %d uplinks, want ~%d", p, up[p], k*k/4)
		}
	}
}

func TestDeterministicBySeed(t *testing.T) {
	a, _ := New(8, 2, 4)
	b, _ := New(8, 2, 4)
	if len(a.Net.Links) != len(b.Net.Links) {
		t.Fatal("same seed differs")
	}
	for i := range a.Net.Links {
		if a.Net.Links[i] != b.Net.Links[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRejectsBadParams(t *testing.T) {
	if _, err := New(5, 1, 1); err == nil {
		t.Error("odd k should fail")
	}
	if _, err := New(8, 5, 1); err == nil {
		t.Error("n > k/2 should fail")
	}
	if _, err := New(8, -1, 1); err == nil {
		t.Error("negative n should fail")
	}
}

func TestCoresHostNoServers(t *testing.T) {
	ts, err := New(8, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	hosts := hostedCounts(ts.Net)
	for _, c := range ts.Cores {
		if hosts[c] != 0 {
			t.Errorf("core %d hosts servers", c)
		}
	}
	_ = topo.CoreSwitch
}

// hostedCounts returns how many servers attach to each switch.
func hostedCounts(nw *topo.Network) map[int]int {
	hosts := make(map[int]int)
	for _, sv := range nw.Servers() {
		hosts[nw.HostSwitch(sv)]++
	}
	return hosts
}
