package ctrl

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"flattree/internal/core"
)

// Controller->agent sends are hardened: each send gets a per-write
// deadline of sendTimeout and is retried up to sendAttempts times with
// exponential backoff starting at sendBackoff.
const (
	sendAttempts = 3
	sendTimeout  = 2 * time.Second
	sendBackoff  = 5 * time.Millisecond
)

// Controller is the centralized network controller of §2.6. It owns the
// authoritative flat-tree model, plans converter reconfigurations for
// target per-pod modes, and drives registered pod agents through a
// two-phase stage/commit exchange so that a conversion is all-or-nothing:
// aborted everywhere, or committed everywhere — a pod that misses the
// commit is caught up when its agent registers again.
//
// Agents send periodic heartbeats (MsgHeartbeat); the controller records a
// last-seen timestamp per pod, and WaitForFailures turns those timestamps
// into a deadline-based liveness verdict that SelfHeal consumes.
type Controller struct {
	mu       sync.Mutex
	ft       *core.FlatTree
	epoch    uint64 // last committed epoch
	issued   uint64 // last issued epoch (monotone across failed attempts)
	agents   map[uint32]*agentConn
	lastSeen map[uint32]time.Time // pod -> last message receipt
	xch      chan event           // non-heartbeat events, fed by the connection readers
	reg      chan struct{}        // closed and re-made on each registration

	wg       sync.WaitGroup
	listener net.Listener
	closed   bool
}

type agentConn struct {
	pod  uint32
	conn net.Conn
	mu   sync.Mutex // serializes writes
}

// send writes one frame, bounding the write by a sendTimeout deadline.
func (a *agentConn) send(t MsgType, payload []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	//flatlint:ignore clockwall write deadlines are wall-clock by definition; no simulated result depends on the value
	if err := a.conn.SetWriteDeadline(time.Now().Add(sendTimeout)); err != nil {
		return err
	}
	defer a.conn.SetWriteDeadline(time.Time{}) // reset; failure only matters on the next write
	return WriteFrame(a.conn, t, payload)
}

type event struct {
	pod     uint32
	msgType MsgType
	payload []byte
	err     error
}

// PodError wraps an exchange failure with the pod it is attributable to,
// so repair loops can exclude exactly the misbehaving pod and re-plan.
type PodError struct {
	Pod uint32
	Err error
}

func (e *PodError) Error() string { return e.Err.Error() }
func (e *PodError) Unwrap() error { return e.Err }

// NewController creates a controller owning the given flat-tree model.
func NewController(ft *core.FlatTree) *Controller {
	return &Controller{
		ft:       ft,
		agents:   make(map[uint32]*agentConn),
		lastSeen: make(map[uint32]time.Time),
		xch:      make(chan event, 256),
		reg:      make(chan struct{}),
	}
}

// FlatTree returns the authoritative model.
func (c *Controller) FlatTree() *core.FlatTree {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ft
}

// Epoch returns the last committed epoch.
func (c *Controller) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// NumAgents returns the number of registered pod agents. Registration is
// sticky: an agent whose connection drops stays registered (and goes stale
// by the liveness deadline) until a reconnection replaces it or the
// controller closes.
func (c *Controller) NumAgents() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.agents)
}

// Serve accepts agent connections on l until the listener is closed or ctx
// is canceled. Each connection's reader stamps its pod's liveness and
// forwards protocol events to the exchanges, so conversions and the
// liveness monitor only work while Serve is running. On a controller that
// is already closed it closes l and returns.
func (c *Controller) Serve(ctx context.Context, l net.Listener) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		l.Close()
		return
	}
	c.listener = l
	// Counted under mu, so a concurrent Close either sees closed unset here
	// and waits for Serve, or set it first and Serve never starts: the
	// WaitGroup never goes 0 -> 1 beside Close's Wait. Connection handlers
	// are added while Serve still holds its count.
	c.wg.Add(1)
	c.mu.Unlock()
	defer c.wg.Done()
	defer context.AfterFunc(ctx, func() { l.Close() })()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handle(conn)
		}()
	}
}

// Close shuts the controller down: stops accepting and closes agent
// connections.
func (c *Controller) Close() {
	c.mu.Lock()
	c.closed = true
	if c.listener != nil {
		c.listener.Close()
	}
	for _, a := range c.agents {
		a.conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// handle registers one agent connection and reads its frames until the
// connection fails. Once an epoch has committed, a registering agent is
// first caught up to the model, so a pod that missed a commit, or an agent
// restarted from stale configurations, holds what the model says. Every
// frame stamps the
// pod's liveness; every event but a good heartbeat goes to the exchange
// channel that collectAcks reads. That channel is bounded and lossy under
// pathological backlog (drop-oldest), which is safe: epochs are monotone,
// so a dropped stale ack can only delay — never corrupt — an exchange, and
// a live exchange drains the channel promptly.
func (c *Controller) handle(conn net.Conn) {
	t, payload, err := ReadFrame(conn)
	if err != nil || t != MsgHello {
		conn.Close()
		return
	}
	hello, err := UnmarshalHello(payload)
	if err != nil {
		conn.Close()
		return
	}
	a := &agentConn{pod: hello.Pod, conn: conn}
	var synced uint64 // the committed epoch this connection was caught up to
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		if c.epoch == synced {
			break // registered below, still under c.mu
		}
		epoch, entries := c.epoch, ConfigsForPod(c.ft, int(hello.Pod))
		c.mu.Unlock()
		// Before the agent is registered, so no exchange can stage on this
		// connection ahead of the catch-up.
		if err := catchUp(a, epoch, entries); err != nil {
			conn.Close()
			return
		}
		synced = epoch
	}
	if old, ok := c.agents[hello.Pod]; ok {
		old.conn.Close()
	}
	c.agents[hello.Pod] = a
	c.lastSeen[hello.Pod] = time.Now() //flatlint:ignore clockwall liveness stamps track real agents on a real network
	close(c.reg)
	c.reg = make(chan struct{})
	c.mu.Unlock()

	for {
		t, payload, err := ReadFrame(conn)
		if err == nil {
			c.mu.Lock()
			c.lastSeen[hello.Pod] = time.Now() //flatlint:ignore clockwall liveness stamps track real agents on a real network
			c.mu.Unlock()
			if t == MsgHeartbeat {
				continue
			}
		}
		// Never block the reader: on a full channel drop the oldest event
		// to make room, and drop this one if another reader took it first.
		ev := event{pod: hello.Pod, msgType: t, payload: payload, err: err}
		select {
		case c.xch <- ev:
		default:
			select {
			case <-c.xch:
			default:
			}
			select {
			case c.xch <- ev:
			default:
			}
		}
		if err != nil {
			// The registration stays: liveness is decided by the
			// heartbeat deadline, not by TCP teardown, and a stale
			// entry is replaced on reconnection or closed by Close.
			conn.Close()
			return
		}
	}
}

// WaitForAgents blocks until n agents are registered or ctx expires.
func (c *Controller) WaitForAgents(ctx context.Context, n int) error {
	for {
		c.mu.Lock()
		got := len(c.agents)
		ch := c.reg
		c.mu.Unlock()
		if got >= n {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return fmt.Errorf("ctrl: %w waiting for %d agents (have %d)", ctx.Err(), n, got)
		}
	}
}

// sendToPod delivers one frame to a pod's agent with per-write deadlines
// and bounded exponential-backoff retries. The agent is looked up freshly
// on every attempt so a reconnection mid-retry is picked up.
func (c *Controller) sendToPod(ctx context.Context, pod uint32, t MsgType, payload []byte) error {
	var last error
	for try := 0; try < sendAttempts; try++ {
		if try > 0 {
			select {
			case <-time.After(sendBackoff << (try - 1)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		c.mu.Lock()
		a, ok := c.agents[pod]
		c.mu.Unlock()
		if !ok {
			return fmt.Errorf("ctrl: no agent registered for pod %d", pod)
		}
		if last = a.send(t, payload); last == nil {
			return nil
		}
	}
	return fmt.Errorf("ctrl: %s to pod %d failed after %d attempts: %w", t, pod, sendAttempts, last)
}

// Plan computes the per-pod configuration diffs needed to move the model
// from its current modes to the target modes. Pods with no changes are
// omitted. Plan has no side effects and needs no network.
func (c *Controller) Plan(modes []core.Mode) (map[uint32][]ConfigEntry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(modes) != c.ft.Params.K {
		return nil, fmt.Errorf("ctrl: %d modes for %d pods", len(modes), c.ft.Params.K)
	}
	current := c.ft.Configs()
	plan := make(map[uint32][]ConfigEntry)
	for id, ci := range c.ft.Convs {
		target := c.ft.ConfigFor(id, modes)
		if target != current[id] {
			plan[uint32(ci.Pod)] = append(plan[uint32(ci.Pod)], ConfigEntry{
				Converter: uint32(id),
				Config:    target,
			})
		}
	}
	return plan, nil
}

// Convert drives the two-phase reconfiguration to the target modes: stage
// the new configurations at every affected pod agent, and commit once all
// have staged. A failure before every pod has staged aborts the epoch
// everywhere and leaves the model unchanged. After that the conversion is
// committed: the model moves to modes even if a pod then fails, the error
// names that pod, and its agent is brought up to the model when it
// registers again. The supplied context bounds the whole exchange.
func (c *Controller) Convert(ctx context.Context, modes []core.Mode) error {
	plan, err := c.Plan(modes)
	if err != nil {
		return err
	}
	_, err = c.convertEntries(ctx, plan, modes)
	return err
}

// convertEntries runs one two-phase exchange delivering the given per-pod
// configuration entries, and returns the epoch it committed under. Epochs
// are issued monotonically even across failed attempts so that stale
// acknowledgments from an aborted exchange can never satisfy a later one.
// An empty plan just burns an epoch (mode labels may still change).
//
// Once every pod has staged, the epoch is committed: the model takes modes
// (nil keeps them) and the committed epoch before any agent is told, so no
// agent ever holds an epoch the controller has not committed. The commit is
// then sent to, and awaited from, every pod; one that misses it is caught
// up when its agent registers again (see handle).
//
// Failures attributable to one pod are returned as *PodError so callers
// with a repair budget can exclude that pod and re-plan. A failed stage is
// aborted everywhere, and every abort that could not be delivered is joined
// into the returned error: that pod's agent may still hold the staged
// epoch (monotone epochs keep it from ever committing), and the caller
// sees which pods missed the abort.
func (c *Controller) convertEntries(ctx context.Context, plan map[uint32][]ConfigEntry, modes []core.Mode) (uint64, error) {
	c.mu.Lock()
	c.issued++
	epoch := c.issued
	// Pods are visited in sorted order everywhere below — registration
	// check, stage, commit, abort — so which pod a *PodError blames, and
	// the order of joined abort errors, is a function of the plan alone.
	pods := make([]uint32, 0, len(plan))
	for pod := range plan {
		pods = append(pods, pod)
	}
	sort.Slice(pods, func(i, j int) bool { return pods[i] < pods[j] })
	involved := make(map[uint32]*agentConn, len(plan))
	for _, pod := range pods {
		a, ok := c.agents[pod]
		if !ok {
			c.mu.Unlock()
			return 0, &PodError{Pod: pod, Err: fmt.Errorf("ctrl: no agent registered for pod %d", pod)}
		}
		involved[pod] = a
	}
	c.mu.Unlock()

	if len(plan) == 0 {
		return epoch, c.commit(epoch, modes)
	}

	// Drain stale events from exchanges that ended after their collector
	// stopped reading; monotone epochs make them harmless, this just keeps
	// them from burning collector iterations.
	for {
		select {
		case <-c.xch:
			continue
		default:
		}
		break
	}

	// abort broadcasts the abort of this epoch and returns cause joined
	// with every abort it could not deliver.
	abort := func(cause error) error {
		errs := []error{cause}
		for _, pod := range pods {
			// Best-effort, direct to the captured connection: the agent
			// may have deregistered, but if it staged the epoch it must
			// still be told to discard it — or the failure reported.
			if err := involved[pod].send(MsgAbort, MarshalCommit(Commit{Epoch: epoch})); err != nil {
				errs = append(errs, fmt.Errorf("ctrl: abort of epoch %d to pod %d: %w", epoch, pod, err))
			}
		}
		return errors.Join(errs...)
	}

	// Phase 1: stage.
	pending := make(map[uint32]bool, len(pods))
	for _, pod := range pods {
		if err := c.sendToPod(ctx, pod, MsgStage, MarshalStage(Stage{Epoch: epoch, Entries: plan[pod]})); err != nil {
			return 0, &PodError{Pod: pod, Err: abort(fmt.Errorf("ctrl: stage to pod %d: %w", pod, err))}
		}
		pending[pod] = true
	}
	if err := c.collectAcks(ctx, pending, epoch, MsgStaged); err != nil {
		return 0, wrapPhase("stage", abort(err))
	}
	if err := c.commit(epoch, modes); err != nil {
		return 0, abort(err)
	}

	// Phase 2: commit. Every pod is told and waited for, whichever of
	// them fails; the first failure is returned.
	var failed error
	for _, pod := range pods {
		if err := c.sendToPod(ctx, pod, MsgCommit, MarshalCommit(Commit{Epoch: epoch})); err == nil {
			pending[pod] = true
		} else if failed == nil {
			failed = &PodError{Pod: pod, Err: fmt.Errorf("ctrl: commit to pod %d: %w", pod, err)}
		}
	}
	for len(pending) > 0 {
		err := c.collectAcks(ctx, pending, epoch, MsgCommitted)
		if err != nil && failed == nil {
			failed = wrapPhase("commit", err)
		}
		var pe *PodError
		if !errors.As(err, &pe) || !pending[pe.Pod] {
			break // done, the context ended, or no pending pod failed
		}
		delete(pending, pe.Pod)
	}
	return epoch, failed
}

// commit records epoch as committed, with the model at modes (nil keeps
// them).
func (c *Controller) commit(epoch uint64, modes []core.Mode) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if modes != nil {
		if err := c.ft.SetModes(modes); err != nil {
			return err
		}
	}
	c.epoch = epoch
	return nil
}

// catchUp brings a registering agent to the model: its pod's whole
// configuration, staged and committed under the last committed epoch. The
// acknowledgments carry that epoch: no later exchange waits for them, and
// one still collecting them may count them, since the agent holds that
// epoch's state.
func catchUp(a *agentConn, epoch uint64, entries []ConfigEntry) error {
	if err := a.send(MsgStage, MarshalStage(Stage{Epoch: epoch, Entries: entries})); err != nil {
		return err
	}
	return a.send(MsgCommit, MarshalCommit(Commit{Epoch: epoch}))
}

// wrapPhase labels a collector error with its phase while keeping any
// *PodError attribution intact for errors.As.
func wrapPhase(phase string, err error) error {
	var pe *PodError
	if errors.As(err, &pe) {
		return &PodError{Pod: pe.Pod, Err: fmt.Errorf("ctrl: %s phase: %w", phase, err)}
	}
	return fmt.Errorf("ctrl: %s phase: %w", phase, err)
}

// collectAcks waits for the given ack type of epoch from every pending pod,
// deleting each pod from pending as its ack arrives.
func (c *Controller) collectAcks(ctx context.Context, pending map[uint32]bool, epoch uint64, want MsgType) error {
	for len(pending) > 0 {
		select {
		case ev := <-c.xch:
			if ev.err != nil {
				if pending[ev.pod] {
					return &PodError{Pod: ev.pod, Err: fmt.Errorf("ctrl: agent for pod %d failed: %w", ev.pod, ev.err)}
				}
				continue
			}
			switch ev.msgType {
			case want:
				ack, err := UnmarshalAck(ev.payload)
				if err != nil {
					return err
				}
				if ack.Epoch == epoch {
					delete(pending, ack.Pod)
				}
			case MsgError:
				em, err := UnmarshalError(ev.payload)
				if err != nil {
					return err
				}
				if em.Epoch != epoch {
					continue // a rejection of another exchange's epoch
				}
				return &PodError{Pod: em.Pod, Err: fmt.Errorf("ctrl: pod %d rejected epoch %d: %s", em.Pod, em.Epoch, em.Text)}
			default:
				// Stale message from a previous exchange; ignore.
			}
		case <-ctx.Done():
			var missing []uint32
			for pod := range pending {
				missing = append(missing, pod)
			}
			sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
			return fmt.Errorf("ctrl: %w awaiting %s from pods %v", ctx.Err(), want, missing)
		}
	}
	return nil
}

// ConfigsForPod extracts the model's current configuration entries for one
// pod, used to initialize agents.
func ConfigsForPod(ft *core.FlatTree, pod int) []ConfigEntry {
	var entries []ConfigEntry
	configs := ft.Configs()
	for id, ci := range ft.Convs {
		if ci.Pod == pod {
			entries = append(entries, ConfigEntry{Converter: uint32(id), Config: configs[id]})
		}
	}
	return entries
}
