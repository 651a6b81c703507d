package ctrl

import (
	"testing"

	"flattree/internal/core"
)

func buildK8(t *testing.T) *core.FlatTree {
	t.Helper()
	ft, err := core.Build(core.Params{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// serverInPod returns some server homed in the given pod.
func serverInPod(ft *core.FlatTree, pod, i int) int {
	podSize := ft.Params.K * ft.Params.K / 4
	return ft.ServerIDs[pod*podSize+i]
}

func TestAdviseClassifiesWorkloads(t *testing.T) {
	ft := buildK8(t)
	var obs []FlowObservation
	// Pods 0-2: hot-spot traffic crossing pods.
	hot := serverInPod(ft, 0, 0)
	for p := 1; p <= 2; p++ {
		for i := 0; i < 8; i++ {
			obs = append(obs, FlowObservation{Src: hot, Dst: serverInPod(ft, p, i), Bytes: 100})
		}
	}
	// Pods 3-4: small clusters inside each pod.
	for p := 3; p <= 4; p++ {
		for i := 0; i < 8; i++ {
			obs = append(obs, FlowObservation{
				Src: serverInPod(ft, p, i), Dst: serverInPod(ft, p, (i+1)%16), Bytes: 150,
			})
		}
	}
	// Pods 5-7: idle.
	modes, advice, err := Advise(ft, obs)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Mode{
		core.ModeGlobalRandom, core.ModeGlobalRandom, core.ModeGlobalRandom,
		core.ModeLocalRandom, core.ModeLocalRandom,
		core.ModeClos, core.ModeClos, core.ModeClos,
	}
	for p, m := range want {
		if modes[p] != m {
			t.Errorf("pod %d: advised %s, want %s (advice %+v)", p, modes[p], m, advice[p])
		}
	}
	// The advice must be applicable.
	if err := ft.SetModes(modes); err != nil {
		t.Fatal(err)
	}
	if err := ft.Net().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAdviseEmptyObservations(t *testing.T) {
	ft := buildK8(t)
	modes, _, err := Advise(ft, nil)
	if err != nil {
		t.Fatal(err)
	}
	for p, m := range modes {
		if m != core.ModeClos {
			t.Errorf("idle pod %d advised %s", p, m)
		}
	}
}

func TestAdviseErrors(t *testing.T) {
	ft := buildK8(t)
	if _, _, err := Advise(ft, []FlowObservation{{Src: -1, Dst: 0, Bytes: 1}}); err == nil {
		t.Error("bad node accepted")
	}
	if _, _, err := Advise(ft, []FlowObservation{{Src: ft.Cores[0], Dst: ft.ServerIDs[0], Bytes: 1}}); err == nil {
		t.Error("podless node accepted")
	}
	if _, _, err := Advise(ft, []FlowObservation{
		{Src: ft.ServerIDs[0], Dst: ft.ServerIDs[1], Bytes: -4},
	}); err == nil {
		t.Error("negative bytes accepted")
	}
}

// TestAdviseStableAcrossConversion: advice computed before and after a
// conversion is identical because pod membership is by home pod.
func TestAdviseStableAcrossConversion(t *testing.T) {
	ft := buildK8(t)
	obs := []FlowObservation{
		{Src: serverInPod(ft, 0, 0), Dst: serverInPod(ft, 5, 0), Bytes: 10},
		{Src: serverInPod(ft, 1, 0), Dst: serverInPod(ft, 1, 1), Bytes: 10},
	}
	before, _, err := Advise(ft, obs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ft.SetUniformMode(core.ModeGlobalRandom); err != nil {
		t.Fatal(err)
	}
	after, _, err := Advise(ft, obs)
	if err != nil {
		t.Fatal(err)
	}
	for p := range before {
		if before[p] != after[p] {
			t.Errorf("pod %d: advice changed across conversion: %s -> %s", p, before[p], after[p])
		}
	}
}
