package ctrl

import (
	"context"
	"net"
	"sync"
	"time"

	"flattree/internal/core"
)

// Plant is a live control plane in one process: a controller serving on
// loopback TCP and one agent per pod speaking the real wire codec, each
// agent under its own cancel so a pod can be killed on its own. It is the
// setup the self-heal and soak drivers, the examples and `flatctl demo`
// run; `flatctl serve`/`agent` talk to remote peers instead.
//
// A Plant is driven from one goroutine: Agent, Kill and Close are not
// safe for concurrent use.
type Plant struct {
	c       *Controller
	addr    string
	agents  []*Agent
	cancels []context.CancelFunc // per-pod, for the pod's current agent
	wg      sync.WaitGroup       // Serve and every Agent.Run
}

// StartPlant brings up a controller for ft and one agent per pod, each
// with the given HeartbeatInterval and ApplyDelay (see Agent), and
// returns once every agent has registered. The plant runs until ctx ends
// or Close is called; Close must be called either way.
func StartPlant(ctx context.Context, ft *core.FlatTree, heartbeat, applyDelay time.Duration) (*Plant, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	k := ft.Params.K
	p := &Plant{
		c:       NewController(ft),
		addr:    l.Addr().String(),
		agents:  make([]*Agent, k),
		cancels: make([]context.CancelFunc, k),
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.c.Serve(ctx, l)
	}()
	for pod := 0; pod < k; pod++ {
		a := NewAgent(pod, ConfigsForPod(ft, pod))
		a.HeartbeatInterval = heartbeat
		a.ApplyDelay = applyDelay
		p.run(ctx, a)
	}
	wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
	defer wcancel()
	if err := p.c.WaitForAgents(wctx, k); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// run starts a's session under its own cancel, as its pod's current agent.
func (p *Plant) run(ctx context.Context, a *Agent) {
	actx, cancel := context.WithCancel(ctx)
	p.agents[a.Pod()], p.cancels[a.Pod()] = a, cancel
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		//flatlint:ignore ignorederr an agent's exit races teardown; liveness is asserted through the controller
		_ = a.Run(actx, p.addr)
	}()
}

// Controller returns the plant's controller.
func (p *Plant) Controller() *Controller { return p.c }

// Agent returns pod's current agent, for failure injection (RejectStage)
// and state checks.
func (p *Plant) Agent(pod int) *Agent { return p.agents[pod] }

// Kill ends pod's agent: its connection closes and its heartbeats stop,
// so the controller's deadline monitor declares the pod dead. Killing a
// dead pod is a no-op.
func (p *Plant) Kill(pod int) { p.cancels[pod]() }

// Close stops every agent and the controller and returns once Serve and
// every Agent.Run have returned.
func (p *Plant) Close() {
	// Closing the controller stops Serve and ends every session from the
	// server side, so the cancellations below find nothing left to tear
	// down and start no callback goroutine that could outlive Close.
	p.c.Close()
	p.wg.Wait()
	for _, cancel := range p.cancels {
		cancel()
	}
}
