package ctrl

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"flattree/internal/core"
)

// startPlant builds a flat-tree and a live plant over it: a controller
// serving on loopback and one registered agent per pod.
func startPlant(t *testing.T, k int) (*Controller, []*Agent, func()) {
	t.Helper()
	ft, err := core.Build(core.Params{K: k})
	if err != nil {
		t.Fatal(err)
	}
	p, err := StartPlant(context.Background(), ft, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p.c, p.agents, p.Close
}

func uniformModes(k int, m core.Mode) []core.Mode {
	modes := make([]core.Mode, k)
	for i := range modes {
		modes[i] = m
	}
	return modes
}

// TestConvertEndToEnd drives Clos -> global-random over real TCP and
// asserts every agent's hardware state matches the controller model.
func TestConvertEndToEnd(t *testing.T) {
	k := 8
	c, agents, cleanup := startPlant(t, k)
	defer cleanup()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Convert(ctx, uniformModes(k, core.ModeGlobalRandom)); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != 1 {
		t.Errorf("epoch = %d, want 1", c.Epoch())
	}
	want := c.FlatTree().Configs()
	for _, a := range agents {
		for id, cfg := range a.Configs() {
			if want[id] != cfg {
				t.Fatalf("pod %d converter %d: agent has %s, model has %s",
					a.Pod(), id, cfg, want[id])
			}
		}
		if a.Commits() != 1 {
			t.Errorf("pod %d committed %d epochs, want 1", a.Pod(), a.Commits())
		}
	}
	// The model's effective network must now be the global-random one.
	if c.FlatTree().Mode(0) != core.ModeGlobalRandom {
		t.Error("model mode not updated")
	}
}

// TestConvertSequence runs several conversions including hybrid zones.
func TestConvertSequence(t *testing.T) {
	k := 6
	c, agents, cleanup := startPlant(t, k)
	defer cleanup()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	hybrid := uniformModes(k, core.ModeLocalRandom)
	for p := 0; p < k/2; p++ {
		hybrid[p] = core.ModeGlobalRandom
	}
	steps := [][]core.Mode{
		uniformModes(k, core.ModeGlobalRandom),
		uniformModes(k, core.ModeClos),
		hybrid,
	}
	for i, modes := range steps {
		if err := c.Convert(ctx, modes); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if c.Epoch() != 3 {
		t.Errorf("epoch = %d, want 3", c.Epoch())
	}
	want := c.FlatTree().Configs()
	for _, a := range agents {
		for id, cfg := range a.Configs() {
			if want[id] != cfg {
				t.Fatalf("after sequence: pod %d converter %d: %s != %s", a.Pod(), id, cfg, want[id])
			}
		}
	}
}

// TestConvertNoChange: converting to the current modes touches no agent
// but still succeeds.
func TestConvertNoChange(t *testing.T) {
	k := 4
	c, _, cleanup := startPlant(t, k)
	defer cleanup()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Convert(ctx, uniformModes(k, core.ModeClos)); err != nil {
		t.Fatal(err)
	}
}

// TestConvertRejectedStage: an agent that rejects its stage aborts the
// whole conversion; the model stays unchanged and other agents' staged
// state is discarded (a later conversion still works).
func TestConvertRejectedStage(t *testing.T) {
	k := 4
	c, agents, cleanup := startPlant(t, k)
	defer cleanup()
	agents[2].RejectStage = true

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := c.Convert(ctx, uniformModes(k, core.ModeGlobalRandom))
	if err == nil {
		t.Fatal("conversion should fail when an agent rejects")
	}
	if c.Epoch() != 0 {
		t.Errorf("epoch advanced to %d on failed conversion", c.Epoch())
	}
	if c.FlatTree().Mode(0) != core.ModeClos {
		t.Error("model changed on failed conversion")
	}
	// Recovery: clear the fault and convert again.
	agents[2].RejectStage = false
	if err := c.Convert(ctx, uniformModes(k, core.ModeGlobalRandom)); err != nil {
		t.Fatalf("recovery conversion: %v", err)
	}
	if c.Epoch() != 2 {
		// Epoch 1 was burned by the aborted attempt.
		t.Errorf("epoch = %d, want 2", c.Epoch())
	}
}

// TestConvertMissingAgent: converting without an agent for an affected pod
// fails fast.
func TestConvertMissingAgent(t *testing.T) {
	ft, err := core.Build(core.Params{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(ft)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(context.Background(), l)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := c.Convert(ctx, uniformModes(4, core.ModeGlobalRandom)); err == nil {
		t.Fatal("conversion without agents should fail")
	}
}

// TestApplyDelay: commits wait for converter switching latency.
func TestApplyDelay(t *testing.T) {
	k := 4
	c, agents, cleanup := startPlant(t, k)
	defer cleanup()
	for _, a := range agents {
		a.ApplyDelay = 30 * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := c.Convert(ctx, uniformModes(k, core.ModeLocalRandom)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("conversion finished in %v, before the apply delay", elapsed)
	}
}

// TestPlanOnlyChangedPods: a hybrid plan touching one zone leaves pods
// whose configurations are unchanged out of the plan.
func TestPlanOnlyChangedPods(t *testing.T) {
	ft, err := core.Build(core.Params{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(ft)
	modes := uniformModes(8, core.ModeClos)
	modes[3] = core.ModeLocalRandom
	plan, err := c.Plan(modes)
	if err != nil {
		t.Fatal(err)
	}
	// Local-random only flips 4-port converters in pod 3; no other pod's
	// configs change (6-port stay Default, and side pairing is unaffected
	// by LocalRandom).
	if len(plan) != 1 {
		t.Fatalf("plan touches %d pods, want 1: %v", len(plan), podsOf(plan))
	}
	if _, ok := plan[3]; !ok {
		t.Fatal("plan misses pod 3")
	}
	if _, err := c.Plan([]core.Mode{core.ModeClos}); err == nil {
		t.Error("short mode slice accepted")
	}
}

func podsOf(plan map[uint32][]ConfigEntry) []uint32 {
	var out []uint32
	for p := range plan {
		out = append(out, p)
	}
	return out
}

// TestAgentReregistration: a reconnecting agent replaces its predecessor.
func TestAgentReregistration(t *testing.T) {
	k := 4
	c, _, cleanup := startPlant(t, k)
	defer cleanup()
	// Connect a second agent for pod 0.
	ft := c.FlatTree()
	a := NewAgent(0, ConfigsForPod(ft, 0))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	addr := listenerAddr(c)
	go func() { done <- a.Run(ctx, addr) }()
	deadline := time.After(5 * time.Second)
	for c.NumAgents() != k {
		select {
		case <-deadline:
			t.Fatal("agent count never settled")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func listenerAddr(c *Controller) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.listener.Addr().String()
}

// TestAbortSendErrorsRecorded: when an abort broadcast cannot reach an
// agent, the failure is joined into the error Convert returns instead of
// being silently discarded — that agent may still hold a staged epoch, and
// operators need to see which pods missed the abort. (The stale stage can
// never commit because epochs are issued monotonically.)
func TestAbortSendErrorsRecorded(t *testing.T) {
	k := 4
	c, _, cleanup := startPlant(t, k)
	defer cleanup()

	// Sever pod 1's controller-side connection. The stage send to pod 1
	// then fails, triggering the abort broadcast, whose own send to pod 1
	// also fails and must be reported.
	c.mu.Lock()
	c.agents[1].conn.Close()
	c.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := c.Convert(ctx, uniformModes(k, core.ModeGlobalRandom))
	if err == nil {
		t.Fatal("conversion over a severed connection should fail")
	}
	if !strings.Contains(err.Error(), "abort of epoch 1 to pod 1") {
		t.Errorf("error does not report the abort pod 1 missed: %v", err)
	}
	var pe *PodError
	if !errors.As(err, &pe) || pe.Pod != 1 {
		t.Errorf("error %v does not attribute the failure to pod 1 (*PodError %+v)", err, pe)
	}
	if c.Epoch() != 0 {
		t.Errorf("epoch advanced to %d on failed conversion", c.Epoch())
	}
}

// waitRegistered polls until pod's registered connection is not old.
func waitRegistered(t *testing.T, c *Controller, pod uint32, old *agentConn) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		a := c.agents[pod]
		c.mu.Unlock()
		if a != old {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pod %d never re-registered", pod)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCommitPhaseFailureCatchesUpOnRegistration: once every pod has staged,
// the conversion is committed even if a pod then dies before applying it.
// The model and epoch move, the error names the pod, no agent holds an
// epoch the controller has not committed, and the pod's next agent — here
// one still holding the pre-conversion configuration — is brought up to
// the model when it registers.
func TestCommitPhaseFailureCatchesUpOnRegistration(t *testing.T) {
	k := 4
	c, agents, cleanup := startPlant(t, k)
	defer cleanup()
	const pod = 1
	before := ConfigsForPod(c.FlatTree(), pod)

	// Pod 1's agent is replaced by one that stages and then dies on commit.
	c.mu.Lock()
	old := c.agents[pod]
	c.mu.Unlock()
	conn, err := net.Dial("tcp", listenerAddr(c))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, MsgHello, MarshalHello(Hello{Pod: pod, NumConverters: uint32(len(before))})); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer conn.Close()
		for {
			mt, payload, err := ReadFrame(conn)
			if err != nil || mt != MsgStage {
				return // a commit, or the controller closing
			}
			s, err := UnmarshalStage(payload)
			if err != nil || WriteFrame(conn, MsgStaged, MarshalAck(Ack{Epoch: s.Epoch, Pod: pod})) != nil {
				return
			}
		}
	}()
	waitRegistered(t, c, pod, old)
	c.mu.Lock()
	dying := c.agents[pod]
	c.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = c.Convert(ctx, uniformModes(k, core.ModeGlobalRandom))
	var pe *PodError
	if !errors.As(err, &pe) || pe.Pod != pod {
		t.Fatalf("Convert = %v, want a *PodError for pod %d", err, pod)
	}
	if c.Epoch() != 1 || c.FlatTree().Mode(0) != core.ModeGlobalRandom {
		t.Fatalf("epoch %d, mode %s: the conversion every pod staged must be committed", c.Epoch(), c.FlatTree().Mode(0))
	}
	want := c.FlatTree().Configs()
	for _, a := range agents {
		if a.Pod() == pod {
			continue
		}
		if a.Commits() != 1 {
			t.Errorf("pod %d committed %d epochs, want 1", a.Pod(), a.Commits())
		}
		for id, cfg := range a.Configs() {
			if want[id] != cfg {
				t.Fatalf("pod %d converter %d: agent has %s, model has %s", a.Pod(), id, cfg, want[id])
			}
		}
	}

	// The pod comes back with the hardware it had before the conversion.
	stale := NewAgent(pod, before)
	actx, acancel := context.WithCancel(context.Background())
	defer acancel()
	go stale.Run(actx, listenerAddr(c))
	waitRegistered(t, c, pod, dying)
	deadline := time.Now().Add(5 * time.Second)
	for stale.Commits() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the re-registered pod was never caught up")
		}
		time.Sleep(time.Millisecond)
	}
	if stale.Commits() != 1 {
		t.Errorf("caught-up pod committed %d epochs, want 1", stale.Commits())
	}
	for id, cfg := range stale.Configs() {
		if want[id] != cfg {
			t.Errorf("caught-up pod converter %d: agent has %s, model has %s", id, cfg, want[id])
		}
	}
}
