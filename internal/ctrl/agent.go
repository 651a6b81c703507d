package ctrl

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"flattree/internal/converter"
)

// Agent is the pod-side endpoint of the control plane: the software model
// of a pod's converter switches. It connects to the controller, accepts
// staged configurations, and flips them atomically on commit — the role a
// converter driver (e.g. an optical switch's software interface, §2.6)
// plays in a real deployment.
type Agent struct {
	pod uint32

	mu      sync.Mutex
	active  map[uint32]converter.Config
	staged  map[uint32]converter.Config
	stagedE uint64
	commits int

	// wmu serializes frame writes: the heartbeat ticker and protocol
	// replies share one connection.
	wmu sync.Mutex

	// ApplyDelay simulates converter switching latency between commit
	// receipt and acknowledgment (the paper notes flat-tree "changes
	// topology infrequently", so converters may be slow and cheap).
	ApplyDelay time.Duration
	// RejectStage makes the agent refuse stages (failure injection for
	// controller tests).
	RejectStage bool
	// HeartbeatInterval is the period between liveness beacons to the
	// controller; zero selects DefaultHeartbeatInterval, negative disables
	// heartbeats (failure injection: the agent looks dead to the monitor).
	HeartbeatInterval time.Duration
}

// DefaultHeartbeatInterval is used when Agent.HeartbeatInterval is zero.
const DefaultHeartbeatInterval = 25 * time.Millisecond

// NewAgent creates an agent for a pod with its converters' current
// configurations (converter ID -> config).
func NewAgent(pod int, initial []ConfigEntry) *Agent {
	a := &Agent{pod: uint32(pod), active: make(map[uint32]converter.Config, len(initial))}
	for _, e := range initial {
		a.active[e.Converter] = e.Config
	}
	return a
}

// Pod returns the agent's pod index.
func (a *Agent) Pod() int { return int(a.pod) }

// Configs snapshots the active converter configurations.
func (a *Agent) Configs() map[uint32]converter.Config {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[uint32]converter.Config, len(a.active))
	for k, v := range a.active {
		out[k] = v
	}
	return out
}

// Commits returns how many epochs this agent has committed.
func (a *Agent) Commits() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.commits
}

// write sends one frame under the agent's write lock so heartbeats and
// protocol replies never interleave on the wire.
func (a *Agent) write(conn net.Conn, t MsgType, payload []byte) error {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	return WriteFrame(conn, t, payload)
}

// Run dials the controller and serves the protocol until the context is
// canceled or the connection drops, sending periodic heartbeats in the
// background; it returns only after the heartbeat goroutine has. A nil
// error means the context ended the session.
func (a *Agent) Run(ctx context.Context, addr string) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	// Cancellation closes the connection, which unblocks ReadFrame.
	defer context.AfterFunc(ctx, func() { conn.Close() })()

	a.mu.Lock()
	n := len(a.active)
	a.mu.Unlock()
	if err := a.write(conn, MsgHello, MarshalHello(Hello{Pod: a.pod, NumConverters: uint32(n)})); err != nil {
		return err
	}

	interval := a.HeartbeatInterval
	if interval == 0 {
		interval = DefaultHeartbeatInterval
	}
	if interval > 0 {
		hctx, cancelHB := context.WithCancel(ctx)
		var hb sync.WaitGroup
		hb.Add(1)
		go func() {
			defer hb.Done()
			a.heartbeat(hctx, conn, interval)
		}()
		// Run returns only after the heartbeat goroutine has: closing the
		// connection first unblocks a write it may be stuck in.
		defer func() {
			cancelHB()
			conn.Close()
			hb.Wait()
		}()
	}

	for {
		t, payload, err := ReadFrame(conn)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		if err := a.dispatch(conn, t, payload); err != nil {
			return err
		}
	}
}

// heartbeat sends liveness beacons every interval until the context ends
// or a write fails (the read loop will notice the dead connection itself).
func (a *Agent) heartbeat(ctx context.Context, conn net.Conn, interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if err := a.write(conn, MsgHeartbeat, nil); err != nil {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

func (a *Agent) dispatch(conn net.Conn, t MsgType, payload []byte) error {
	switch t {
	case MsgStage:
		s, err := UnmarshalStage(payload)
		if err != nil {
			return err
		}
		if a.RejectStage {
			return a.write(conn, MsgError, MarshalError(ErrorMsg{
				Epoch: s.Epoch, Pod: a.pod, Text: "stage rejected (injected failure)"}))
		}
		a.mu.Lock()
		for _, e := range s.Entries {
			if _, ok := a.active[e.Converter]; !ok {
				a.mu.Unlock()
				return a.write(conn, MsgError, MarshalError(ErrorMsg{
					Epoch: s.Epoch, Pod: a.pod,
					Text: fmt.Sprintf("converter %d not in pod %d", e.Converter, a.pod)}))
			}
		}
		a.staged = make(map[uint32]converter.Config, len(s.Entries))
		for _, e := range s.Entries {
			a.staged[e.Converter] = e.Config
		}
		a.stagedE = s.Epoch
		a.mu.Unlock()
		return a.write(conn, MsgStaged, MarshalAck(Ack{Epoch: s.Epoch, Pod: a.pod}))

	case MsgCommit:
		cm, err := UnmarshalCommit(payload)
		if err != nil {
			return err
		}
		a.mu.Lock()
		if a.staged == nil || a.stagedE != cm.Epoch {
			a.mu.Unlock()
			return a.write(conn, MsgError, MarshalError(ErrorMsg{
				Epoch: cm.Epoch, Pod: a.pod, Text: "commit for unstaged epoch"}))
		}
		if a.ApplyDelay > 0 {
			a.mu.Unlock()
			time.Sleep(a.ApplyDelay)
			a.mu.Lock()
		}
		for id, cfg := range a.staged {
			a.active[id] = cfg
		}
		a.staged = nil
		a.commits++
		a.mu.Unlock()
		return a.write(conn, MsgCommitted, MarshalAck(Ack{Epoch: cm.Epoch, Pod: a.pod}))

	case MsgAbort:
		cm, err := UnmarshalCommit(payload)
		if err != nil {
			return err
		}
		a.mu.Lock()
		if a.staged != nil && a.stagedE == cm.Epoch {
			a.staged = nil
		}
		a.mu.Unlock()
		return nil

	default:
		return fmt.Errorf("ctrl: agent got unexpected %s", t)
	}
}
