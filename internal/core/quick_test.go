package core

import (
	"testing"
	"testing/quick"

	"flattree/internal/topo"
)

// TestRandomHybridAssignmentsValid: any per-pod mode assignment must yield
// a valid connected network with conserved equipment — the invariant that
// makes hybrid operation safe to expose through the controller.
func TestRandomHybridAssignmentsValid(t *testing.T) {
	builds := map[int]*FlatTree{}
	for _, k := range []int{6, 8} {
		ft, err := Build(Params{K: k})
		if err != nil {
			t.Fatal(err)
		}
		builds[k] = ft
	}
	err := quick.Check(func(kPick bool, assign []uint8) bool {
		k := 6
		if kPick {
			k = 8
		}
		ft := builds[k]
		modes := make([]Mode, k)
		for i := range modes {
			if i < len(assign) {
				modes[i] = Mode(assign[i] % 3)
			}
		}
		if err := ft.SetModes(modes); err != nil {
			return false
		}
		nw := ft.Net()
		if err := nw.Validate(); err != nil {
			return false
		}
		st := nw.Stats()
		return st.Servers == k*k*k/4 && st.Links == 3*k*k*k/4
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}

// TestConverterPlantSize: the plant has exactly k * d * (m+n) converters,
// and every one is fully cabled to four devices in its own pod.
func TestConverterPlantSize(t *testing.T) {
	for _, k := range []int{4, 6, 8, 12, 16} {
		ft, err := Build(Params{K: k})
		if err != nil {
			t.Fatal(err)
		}
		m, n := ft.Params.M, ft.Params.N
		want := k * (k / 2) * (m + n)
		if len(ft.Convs) != want {
			t.Errorf("k=%d: %d converters, want %d", k, len(ft.Convs), want)
		}
		for id, ci := range ft.Convs {
			if ci.Server < 0 || ci.Edge < 0 || ci.Agg < 0 || ci.Core < 0 {
				t.Fatalf("k=%d conv %d: incomplete cabling %+v", k, id, ci)
			}
		}
	}
}

// TestServerTapsDisjoint: no two converters tap the same server, and no
// two converters tap the same core-switch cable.
func TestServerTapsDisjoint(t *testing.T) {
	for _, k := range []int{6, 8, 16} {
		ft, err := Build(Params{K: k})
		if err != nil {
			t.Fatal(err)
		}
		servers := make(map[int32]int)
		type coreTap struct {
			agg  int32
			core int32
		}
		cores := make(map[coreTap]int)
		for id, ci := range ft.Convs {
			if prev, dup := servers[ci.Server]; dup {
				t.Fatalf("k=%d: server %d tapped by converters %d and %d", k, ci.Server, prev, id)
			}
			servers[ci.Server] = id
			ct := coreTap{ci.Agg, ci.Core}
			if prev, dup := cores[ct]; dup {
				t.Fatalf("k=%d: agg-core cable %v tapped by converters %d and %d", k, ct, prev, id)
			}
			cores[ct] = id
		}
	}
}

// TestSideLinkCount: in uniform global-random mode with even d, every
// paired blade-B converter contributes to exactly two inter-pod effective
// links (E and A hand-offs), so the side-link total is
// 2 * (#adjacencies) * m * floor(d/2).
func TestSideLinkCount(t *testing.T) {
	for _, k := range []int{8, 16} {
		ft, err := Build(Params{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if err := ft.SetUniformMode(ModeGlobalRandom); err != nil {
			t.Fatal(err)
		}
		m := ft.Params.M
		want := 2 * k * m * (k / 4) // ring: k adjacencies; w = d/2 = k/4
		got := ft.Net().Stats().LinksByTag[topo.TagSide]
		if got != want {
			t.Errorf("k=%d: %d side links, want %d", k, got, want)
		}
	}
}

// TestModesAccessors covers the small accessors used by the controller.
func TestModesAccessors(t *testing.T) {
	ft, err := Build(Params{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	modes := ft.Modes()
	if len(modes) != 4 {
		t.Fatalf("Modes() len %d", len(modes))
	}
	modes[0] = ModeGlobalRandom // must not alias internal state
	if ft.Mode(0) != ModeClos {
		t.Error("Modes() aliases internal state")
	}
	if ft.Params.K != 4 || ft.NumServers() != 16 {
		t.Error("accessors wrong")
	}
	if got := len(ft.Configs()); got != len(ft.Convs) {
		t.Errorf("Configs() len %d, want %d", got, len(ft.Convs))
	}
}

// TestStringers exercises the enum formatting.
func TestStringers(t *testing.T) {
	for _, s := range []string{
		ModeClos.String(), ModeGlobalRandom.String(), ModeLocalRandom.String(), Mode(9).String(),
		PatternAuto.String(), Pattern1.String(), Pattern2.String(), Pattern(9).String(),
		BladeA.String(), BladeB.String(),
	} {
		if s == "" {
			t.Error("empty stringer output")
		}
	}
}

// TestRepeatPeriod covers the pattern-selection arithmetic.
func TestRepeatPeriod(t *testing.T) {
	cases := []struct {
		pat  Pattern
		k, m int
		want int
	}{
		{Pattern1, 8, 1, 4},  // g=4, step 1
		{Pattern2, 8, 1, 2},  // step 2, gcd 2
		{Pattern1, 16, 2, 4}, // g=8, step 2
		{Pattern2, 16, 2, 8}, // step 3 coprime with 8
		{Pattern1, 4, 2, 1},  // step == g
		{Pattern1, 8, 0, 4},  // no 6-port converters
	}
	for _, c := range cases {
		if got := RepeatPeriod(c.pat, c.k, c.m); got != c.want {
			t.Errorf("RepeatPeriod(%s, k=%d, m=%d) = %d, want %d", c.pat, c.k, c.m, got, c.want)
		}
	}
}
