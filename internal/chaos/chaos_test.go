package chaos

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
)

// soakOpts is a small, fast configuration exercising every moving part:
// high rate so episodes overlap repairs, short horizon, coarse epsilon.
func soakOpts() Options {
	return Options{
		K: 4, Rate: 2, Horizon: 6, WindowCost: 0.25, BatchSize: 1,
		SLOThreshold: 0.9, Epsilon: 0.3, Seed: 11, Parallelism: 1,
	}
}

func TestSoakValidation(t *testing.T) {
	ctx := context.Background()
	bad := []Options{
		{K: 3, Rate: 1, Horizon: 1, WindowCost: 0.1, SLOThreshold: 0.9},
		{K: 4, Rate: 0, Horizon: 1, WindowCost: 0.1, SLOThreshold: 0.9},
		{K: 4, Rate: 1, Horizon: 0, WindowCost: 0.1, SLOThreshold: 0.9},
		{K: 4, Rate: 1, Horizon: 1, WindowCost: 0, SLOThreshold: 0.9},
		{K: 4, Rate: 1, Horizon: 1, WindowCost: 0.1, SLOThreshold: 0},
		{K: 4, Rate: 1, Horizon: 1, WindowCost: 0.1, SLOThreshold: 1.5},
		{K: 4, Rate: 1, Horizon: 1, WindowCost: 0.1, SLOThreshold: 0.9, MaxEpisodes: -1},
		{K: 4, Rate: 1, Horizon: 1, WindowCost: 0.1, SLOThreshold: 0.9,
			Mix: Mix{LinkBurst: 1, BurstFraction: 1.5}},
		// Non-finite values: an infinite rate used to spin the spawn loop
		// without ever checking ctx, an infinite horizon never ended.
		{K: 4, Rate: math.Inf(1), Horizon: 1, WindowCost: 0.1, SLOThreshold: 0.9},
		{K: 4, Rate: math.NaN(), Horizon: 1, WindowCost: 0.1, SLOThreshold: 0.9},
		{K: 4, Rate: 1, Horizon: math.Inf(1), WindowCost: 0.1, SLOThreshold: 0.9},
		{K: 4, Rate: 1, Horizon: math.NaN(), WindowCost: 0.1, SLOThreshold: 0.9},
		{K: 4, Rate: 1, Horizon: 1, WindowCost: math.Inf(1), SLOThreshold: 0.9},
		{K: 4, Rate: 1, Horizon: 1, WindowCost: math.NaN(), SLOThreshold: 0.9},
		{K: 4, Rate: 1, Horizon: 1, WindowCost: 0.1, SLOThreshold: 0.9,
			Mix: Mix{LinkBurst: math.Inf(1), SwitchKill: 1}},
		// NaN compares false both ways, so only an in-range test rejects it.
		{K: 4, Rate: 1, Horizon: 1, WindowCost: 0.1, SLOThreshold: math.NaN()},
		{K: 4, Rate: 1, Horizon: 1, WindowCost: 0.1, SLOThreshold: 0.9,
			Mix: Mix{LinkBurst: 1, BurstFraction: math.NaN()}},
		{K: 4, Rate: 1, Horizon: 1, WindowCost: 0.1, SLOThreshold: 0.9,
			Mix: Mix{LinkBurst: 1, ConverterFraction: math.NaN()}},
		{K: 4, Rate: 1, Horizon: 1, WindowCost: 0.1, SLOThreshold: 0.9,
			Mix: Mix{LinkBurst: 1, Aftershock: math.NaN()}},
	}
	for i, o := range bad {
		if _, err := Run(ctx, o); err == nil {
			t.Errorf("options %d accepted: %+v", i, o)
		}
	}
}

// TestSoakLiveArm: the self-healing arm produces episodes, windows, a
// normalized series covering the horizon, and repaired episodes with
// positive latency.
func TestSoakLiveArm(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := Run(ctx, soakOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Episodes) == 0 {
		t.Fatal("soak produced no episodes")
	}
	if res.Windows == 0 {
		t.Error("live soak executed no dark windows")
	}
	total := 0.0
	for _, s := range res.Samples {
		if s.Dur <= 0 {
			t.Errorf("sample at t=%g has non-positive duration %g", s.T, s.Dur)
		}
		if s.Served < 0 || s.Served > 1+1e-9 {
			t.Errorf("sample at t=%g served=%g out of [0,1]", s.T, s.Served)
		}
		total += s.Dur
	}
	if diff := total - res.Horizon; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("series covers %g of horizon %g", total, res.Horizon)
	}
	if res.Lambda0 <= 0 {
		t.Errorf("baseline lambda %g not positive", res.Lambda0)
	}
	if res.SLO.Horizon == 0 {
		t.Error("SLO summary missing")
	}
	repaired := 0
	for _, ep := range res.Episodes {
		if ep.Latency >= 0 {
			repaired++
			// A zero-window repair can still carry the delivery delay of a
			// mid-window arrival, but never more than one window of it.
			if ep.Windows == 0 && ep.Latency >= soakOpts().WindowCost {
				t.Errorf("episode at t=%g repaired in %g with zero windows", ep.T, ep.Latency)
			}
		}
	}
	if repaired == 0 {
		t.Error("no episode was ever fully repaired")
	}
	if res.Replans == 0 {
		t.Error("rate 2 with window cost 0.25 should overlap at least one repair")
	}
}

// TestSoakControlArm: the fixed-cabling arm runs the same event stream
// with no control plane — no windows, no replans, nothing repaired.
func TestSoakControlArm(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	opt := soakOpts()
	opt.Control = true
	res, err := Run(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Episodes) == 0 {
		t.Fatal("control soak produced no episodes")
	}
	if res.Windows != 0 || res.Replans != 0 {
		t.Errorf("control arm executed windows=%d replans=%d", res.Windows, res.Replans)
	}
	for _, ep := range res.Episodes {
		if ep.Latency >= 0 {
			t.Errorf("control arm repaired an episode at t=%g", ep.T)
		}
	}
}

// fingerprint flattens the parts of a Result that must replay
// byte-identically from the seed.
func fingerprint(res *Result) string {
	s := fmt.Sprintf("h=%g l0=%.9g w=%d r=%d x=%v slo=%+v\n",
		res.Horizon, res.Lambda0, res.Windows, res.Replans, res.Excluded, res.SLO)
	for _, e := range res.Episodes {
		s += fmt.Sprintf("ep t=%.9g k=%s lat=%.9g w=%d fs=%d fl=%d\n",
			e.T, e.Kind, e.Latency, e.Windows, e.FailedSwitches, e.FailedLinks)
	}
	for _, sm := range res.Samples {
		s += fmt.Sprintf("s t=%.9g d=%.9g %s ep=%d win=%v frac=%.9g l=%.9g srv=%.9g\n",
			sm.T, sm.Dur, sm.Label, sm.Episode, sm.InWindow, sm.ServerFrac, sm.Lambda, sm.Served)
	}
	return s
}

// TestSoakDeterministicAcrossRunsAndWorkers: the full result — series,
// episode stats, SLO — replays byte-identically from the seed at any
// measurement parallelism, live TCP control plane and all.
func TestSoakDeterministicAcrossRunsAndWorkers(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	opt := soakOpts()
	opt.Horizon = 4
	var prints []string
	for _, workers := range []int{1, 4, 1} {
		o := opt
		o.Parallelism = workers
		res, err := Run(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		prints = append(prints, fingerprint(res))
	}
	if prints[0] != prints[1] {
		t.Errorf("soak differs across worker counts:\n--- w=1\n%s--- w=4\n%s", prints[0], prints[1])
	}
	if prints[0] != prints[2] {
		t.Errorf("soak differs across identical runs:\n--- run1\n%s--- run2\n%s", prints[0], prints[2])
	}
}

// TestSoakNoGoroutineLeak: a finished soak leaves no plant goroutines
// behind (agents joined, controller closed, server stopped).
func TestSoakNoGoroutineLeak(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	before := runtime.NumGoroutine()
	opt := soakOpts()
	opt.Horizon = 2
	if _, err := Run(ctx, opt); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSoakEpisodeCap: MaxEpisodes bounds the stream while the horizon
// still completes.
func TestSoakEpisodeCap(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	opt := soakOpts()
	opt.MaxEpisodes = 3
	res, err := Run(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Episodes) > 3 {
		t.Errorf("cap 3 spawned %d episodes", len(res.Episodes))
	}
	total := 0.0
	for _, s := range res.Samples {
		total += s.Dur
	}
	if diff := total - res.Horizon; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("capped series covers %g of horizon %g", total, res.Horizon)
	}
}
