package jellyfish

import (
	"testing"

	"flattree/internal/topo"
)

func TestEquipmentMatchesFatTree(t *testing.T) {
	for _, k := range []int{4, 6, 8, 16} {
		j, err := New(k, 1)
		if err != nil {
			t.Fatal(err)
		}
		st := j.Net.Stats()
		if st.Servers != k*k*k/4 {
			t.Errorf("k=%d: %d servers, want %d", k, st.Servers, k*k*k/4)
		}
		total := st.CoreSwitches + st.AggSwitches + st.EdgeSwitches
		if total != 5*k*k/4 {
			t.Errorf("k=%d: %d switches, want %d", k, total, 5*k*k/4)
		}
		if err := j.Net.Validate(); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
		// Port budgets: no switch above k ports; at most a handful of
		// unused ports network-wide (random construction leftovers).
		wasted := 0
		for _, sw := range j.Switches {
			used := j.Net.PortsUsed(sw)
			if used > k {
				t.Fatalf("k=%d: switch %d uses %d ports", k, sw, used)
			}
			wasted += k - used
		}
		if wasted > 4 {
			t.Errorf("k=%d: %d unused switch ports", k, wasted)
		}
	}
}

func TestServerSpreadUniform(t *testing.T) {
	k := 8
	j, err := New(k, 7)
	if err != nil {
		t.Fatal(err)
	}
	hosts := make(map[int]int)
	for _, sv := range j.Net.Servers() {
		hosts[j.Net.HostSwitch(sv)]++
	}
	min, max := 1<<30, 0
	for _, sw := range j.Switches {
		c := hosts[sw]
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 1 {
		t.Errorf("server spread %d..%d, want max-min <= 1", min, max)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	a, err := New(6, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(6, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Net.Links) != len(b.Net.Links) {
		t.Fatal("same seed produced different link counts")
	}
	for i := range a.Net.Links {
		if a.Net.Links[i] != b.Net.Links[i] {
			t.Fatalf("same seed diverged at link %d", i)
		}
	}
	c, err := New(6, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Net.Links {
		if i < len(c.Net.Links) && a.Net.Links[i] == c.Net.Links[i] {
			same++
		}
	}
	if same == len(a.Net.Links) {
		t.Error("different seeds produced identical networks")
	}
}

func TestRandomLinksTagged(t *testing.T) {
	j, err := New(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := j.Net.Stats()
	if st.LinksByTag[topo.TagRandom] != st.SwitchSwitchLinks {
		t.Errorf("all switch-switch links should be random-tagged: %v", st.LinksByTag)
	}
	if st.ServerLinks != 6*6*6/4 {
		t.Errorf("server links = %d", st.ServerLinks)
	}
}

func TestRejectsBadK(t *testing.T) {
	for _, k := range []int{0, 3, 5} {
		if _, err := New(k, 1); err == nil {
			t.Errorf("New(%d) should fail", k)
		}
	}
}
