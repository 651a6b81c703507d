// Package chaos is a deterministic long-horizon soak engine: it drives a
// seeded Poisson/correlated stream of failure episodes (faults.Scenario)
// against a live control plane (ctrl.Controller with heartbeating TCP
// agents) while a generalized repair loop heals concurrently, and emits
// the availability time series operators judge such fabrics by.
//
// Everything runs on a virtual clock: episode arrivals, dark-window costs
// and the horizon are virtual time, so a soak replays byte-identically
// from its seed regardless of wall-clock scheduling, worker count, or TCP
// timing. The only wall-clock in the engine is the heartbeat machinery of
// the live control plane, which never feeds the series.
//
// Episode overlap policy: a new episode may land while a repair is in
// flight. The executed windows are kept (their links are real), the
// in-flight remainder is abandoned, the new damage is composed onto the
// snapshot (faults.Compose on Repair.Outcome), and a successor repair is
// replanned over the union — carrying the predecessor's excluded pods and
// remaining retry budget, so the retry-then-exclude machinery bounds the
// whole chain, not each link. Episodes due mid-window are delivered at
// the window boundary: a dark window is the §2.7 atomic unit.
package chaos

import (
	"context"
	"fmt"
	"math"
	"time"

	"flattree/internal/core"
	"flattree/internal/ctrl"
	"flattree/internal/fattree"
	"flattree/internal/faults"
	"flattree/internal/graph"
	"flattree/internal/metrics"
	"flattree/internal/parallel"
	"flattree/internal/topo"
)

// EpisodeKind classifies one failure episode of the soak stream.
type EpisodeKind uint8

const (
	// LinkBurst fails a fraction of one random pod's links together (a
	// shared power feed or patch panel going down).
	LinkBurst EpisodeKind = iota
	// SwitchKill fails one uniformly chosen surviving switch.
	SwitchKill
	// ConverterKill kills a fraction of converter blocks, pinning their
	// surviving links (flat-tree arm; a no-op on fixed cabling).
	ConverterKill
	// PodKill takes a whole surviving pod down — switches, servers, and
	// on the live arm its agent, so the heartbeat monitor sees the death.
	PodKill
)

func (k EpisodeKind) String() string {
	switch k {
	case LinkBurst:
		return "link-burst"
	case SwitchKill:
		return "switch-kill"
	case ConverterKill:
		return "conv-kill"
	case PodKill:
		return "pod-kill"
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// Mix weights the episode kinds. Weights are relative (they need not sum
// to 1); a zero weight disables the kind.
type Mix struct {
	LinkBurst, SwitchKill, ConverterKill, PodKill float64
}

// Episode severities, the same for every mix.
const (
	// burstFraction is the fraction of a burst pod's links that fail.
	burstFraction = 0.3
	// converterFraction is the fraction of converter blocks a
	// ConverterKill episode takes down.
	converterFraction = 0.25
	// aftershock is the probability that the next inter-arrival is drawn
	// at aftershockRate times the base rate — failures cluster in time
	// (correlated aftershocks), as production fault streams do.
	aftershock = 0.25
	// aftershockRate is the rate multiplier for aftershock inter-arrivals.
	aftershockRate = 8.0
)

// DefaultMix weights small correlated damage over catastrophic loss,
// roughly how production fault streams skew.
func DefaultMix() Mix {
	return Mix{LinkBurst: 5, SwitchKill: 3, ConverterKill: 1, PodKill: 1}
}

func (m Mix) total() float64 {
	return m.LinkBurst + m.SwitchKill + m.ConverterKill + m.PodKill
}

// Options configures one soak run.
type Options struct {
	// K is the fat-tree arity of the plant.
	K int
	// Rate is the base episode arrival rate in episodes per unit virtual
	// time; Horizon is the virtual duration of the soak.
	Rate    float64
	Horizon float64
	// MaxEpisodes caps how many episodes spawn (0 = unlimited); the soak
	// still runs to Horizon after the cap so in-flight repairs finish.
	MaxEpisodes int
	// WindowCost is the virtual time one dark window occupies.
	WindowCost float64
	// BatchSize is the repair batch (pods re-aimed per dark window).
	BatchSize int
	// Mix selects the episode mix; the zero value means DefaultMix.
	Mix Mix
	// SLOThreshold is the served-capacity fraction the availability
	// verdict is judged against, in (0,1].
	SLOThreshold float64
	// Epsilon is the accuracy of the λ measurement solves.
	Epsilon float64
	// Seed derives every random choice of the run via parallel.SeedStream.
	Seed uint64
	// Parallelism fans the measurement phase out (0 = all cores).
	Parallelism int
	// Control selects the fixed-cabling fat-tree control arm: identical
	// event stream, no control plane, no healing. The comparison against
	// the self-healing flat-tree under the same seed is the §5 argument.
	Control bool
}

func (o *Options) validate() error {
	if o.K < 4 || o.K%2 != 0 {
		return fmt.Errorf("chaos: k=%d must be an even integer >= 4", o.K)
	}
	// An infinite rate spawns episodes at one instant forever, and an
	// infinite horizon never ends; NaN fails every comparison.
	if !positiveFinite(o.Rate) {
		return fmt.Errorf("chaos: rate %g must be positive and finite", o.Rate)
	}
	if !positiveFinite(o.Horizon) {
		return fmt.Errorf("chaos: horizon %g must be positive and finite", o.Horizon)
	}
	if o.MaxEpisodes < 0 {
		return fmt.Errorf("chaos: max episodes %d must be >= 0", o.MaxEpisodes)
	}
	if !positiveFinite(o.WindowCost) {
		return fmt.Errorf("chaos: window cost %g must be positive and finite", o.WindowCost)
	}
	if !(0 < o.SLOThreshold && o.SLOThreshold <= 1) {
		return fmt.Errorf("chaos: SLO threshold %g out of (0,1]", o.SLOThreshold)
	}
	if o.Mix == (Mix{}) {
		o.Mix = DefaultMix()
	}
	if !positiveFinite(o.Mix.total()) {
		return fmt.Errorf("chaos: episode mix needs a positive weight and no infinite one")
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 1
	}
	return nil
}

func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Sample is one segment of the soak's piecewise-constant time series: the
// fabric held this state for Dur virtual time starting at T.
type Sample struct {
	T, Dur float64
	// Label names the state: "baseline", "degraded", "window", "healed".
	Label string
	// Episode indexes the most recent episode at segment start (-1 for
	// the pre-damage baseline); InWindow marks dark-window segments.
	Episode  int
	InWindow bool
	// ServerFrac is the largest component's server count over the
	// pre-damage baseline's. Lambda is the max-concurrent-flow of the
	// seeded permutation workload on the largest component; Served is
	// ServerFrac scaled by λ/λ0 (capped at 1) — the service fraction the
	// SLO is judged on. A fabric can stay connected while λ collapses,
	// so the objective must track throughput, not reachability.
	ServerFrac float64
	Lambda     float64
	Served     float64
	// Approx marks a λ from a solve that stopped at the context's deadline.
	Approx bool
}

// EpisodeStat records one episode of the stream.
type EpisodeStat struct {
	// T is the episode's arrival time (it takes effect at the next
	// window boundary when a repair is mid-window).
	T    float64
	Kind EpisodeKind
	// Latency is the virtual time from arrival until a repair covering
	// the episode completed fully; -1 when it never did (control arm,
	// partial repair, or horizon cut the repair off).
	Latency float64
	// Windows counts dark windows executed between this episode's
	// arrival and its repair completing (overlapping episodes share
	// windows).
	Windows int
	// FailedSwitches/FailedLinks is the damage this episode added.
	FailedSwitches, FailedLinks int
}

// Result is one soak run's full record.
type Result struct {
	Samples  []Sample
	Episodes []EpisodeStat
	// Windows and Replans count executed dark windows and mid-repair
	// replans across the run; Excluded is the final excluded-pod set.
	Windows  int
	Replans  int
	Excluded []int
	// Lambda0 is the pre-damage baseline λ the series is normalized by.
	Lambda0 float64
	Horizon float64
	SLO     metrics.SLOSummary
}

// span is a segment of the live loop before measurement.
type span struct {
	t, dur   float64
	label    string
	episode  int
	inWindow bool
	nw       *topo.Network
}

// engine is the per-run state of the soak loop.
type engine struct {
	opt    Options
	stream parallel.SeedStream
	// arrivals and kinds are drawn from dedicated RNGs so the episode
	// schedule is independent of how each episode's scenario spends its
	// own randomness.
	arrivalRNG *graph.RNG

	// live-arm plant (nil on the control arm)
	plant *ctrl.Plant

	cur *faults.Outcome // damage state when no repair is in flight
	// rep is the latest repair, in flight or settled (nil before the
	// first): its successor inherits its excluded pods and retry budget.
	rep     *ctrl.Repair
	planIdx int

	t        float64
	nextT    float64
	spans    []span
	episodes []EpisodeStat
	// windowsAt[i] is the total window count when episode i arrived.
	windowsAt []int
	windows   int
	replans   int
}

// interarrival draws the next episode gap: exponential at the base rate,
// compressed by aftershockRate with probability aftershock.
func (e *engine) interarrival() float64 {
	rate := e.opt.Rate
	if e.arrivalRNG.Float64() < aftershock {
		rate *= aftershockRate
	}
	// The RNG has no exponential variate; invert the CDF. 1-U is in
	// (0,1], so the log argument never hits zero.
	return -math.Log(1-e.arrivalRNG.Float64()) / rate
}

// currentNet is the effective fabric between windows.
func (e *engine) currentNet() *topo.Network {
	if e.rep != nil && !e.rep.Done() {
		return e.rep.CurrentNet()
	}
	return e.cur.Net
}

// addSpan appends a segment, skipping zero/negative durations and
// clipping at the horizon.
func (e *engine) addSpan(t, dur float64, label string, inWindow bool, nw *topo.Network) {
	if t+dur > e.opt.Horizon {
		dur = e.opt.Horizon - t
	}
	if dur <= 0 {
		return
	}
	e.spans = append(e.spans, span{
		t: t, dur: dur, label: label,
		episode: len(e.episodes) - 1, inWindow: inWindow, nw: nw,
	})
}

// drawScenario turns one episode draw into a concrete faults.Scenario
// against the current damage state. It also reports the kind, and on the
// live arm performs the PodKill agent death (the only wall-clock side
// effect; it never feeds the series).
func (e *engine) drawScenario(ctx context.Context, rng *graph.RNG, base *faults.Outcome) (faults.Scenario, EpisodeKind, error) {
	m := e.opt.Mix
	kind := LinkBurst
	// Weighted kind draw in fixed order.
	u := rng.Float64() * m.total()
	switch {
	case u < m.LinkBurst:
		kind = LinkBurst
	case u < m.LinkBurst+m.SwitchKill:
		kind = SwitchKill
	case u < m.LinkBurst+m.SwitchKill+m.ConverterKill:
		kind = ConverterKill
	default:
		kind = PodKill
	}

	switch kind {
	case SwitchKill:
		switches := base.Net.Switches()
		if len(switches) == 0 {
			break
		}
		return faults.Scenario{Switches: []int{switches[rng.Intn(len(switches))]}, Seed: rng.Uint64()}, kind, nil
	case ConverterKill:
		return faults.Scenario{ConverterFraction: converterFraction, Seed: rng.Uint64()}, kind, nil
	case PodKill:
		// A pod is killable while it still has switches (a killed pod's
		// agent died with all of them); otherwise fall through to a link
		// burst.
		alive := make([]bool, e.opt.K)
		for _, s := range base.Net.Switches() {
			if p := base.Net.Nodes[s].Pod; p >= 0 && p < e.opt.K {
				alive[p] = true
			}
		}
		var pods []int
		for p, ok := range alive {
			if ok {
				pods = append(pods, p)
			}
		}
		if len(pods) == 0 {
			break
		}
		pod := pods[rng.Intn(len(pods))]
		var switches []int
		for _, s := range base.Net.Switches() {
			if base.Net.Nodes[s].Pod == pod {
				switches = append(switches, s)
			}
		}
		if e.plant != nil {
			// Kill the pod's agent and let the heartbeat monitor reach
			// its verdict before repair planning — wall-clock only.
			e.plant.Kill(pod)
			wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
			defer wcancel()
			if _, err := e.plant.Controller().WaitForFailures(wctx, []int{pod}, heartbeatDeadline); err != nil {
				return faults.Scenario{}, kind, err
			}
		}
		return faults.Scenario{Switches: switches, Seed: rng.Uint64()}, kind, nil
	}
	// A burst needs a pod that still has switches. A fabric battered down
	// to nothing (the control arm never heals) absorbs a no-op episode —
	// the stream keeps its schedule, there is just nothing left to break.
	for _, s := range base.Net.Switches() {
		if base.Net.Nodes[s].Pod >= 0 {
			return faults.Scenario{BurstPods: 1, BurstLinkFraction: burstFraction, Seed: rng.Uint64()}, LinkBurst, nil
		}
	}
	return faults.Scenario{Seed: rng.Uint64()}, LinkBurst, nil
}

const heartbeatDeadline = 60 * time.Millisecond

// spawn delivers one episode: compose the new damage
// onto the current state (snapshotting and abandoning an in-flight
// repair) and, on the live arm, plan the successor repair.
func (e *engine) spawn(ctx context.Context) error {
	i := len(e.episodes)
	rng := graph.NewRNG(e.stream.Seed(uint64(i)))

	base := e.cur
	midRepair := e.rep != nil && !e.rep.Done()
	if midRepair {
		base = e.rep.Outcome(fmt.Sprintf("soak-ep%d-base", i))
		e.replans++
	}
	sc, kind, err := e.drawScenario(ctx, rng, base)
	if err != nil {
		return err
	}
	out, err := faults.Compose(base, sc)
	if err != nil {
		return fmt.Errorf("chaos: episode %d (%s): %w", i, kind, err)
	}
	e.episodes = append(e.episodes, EpisodeStat{
		T: e.nextT, Kind: kind, Latency: -1,
		FailedSwitches: out.FailedSwitches - base.FailedSwitches,
		FailedLinks:    out.FailedLinks - base.FailedLinks,
	})
	e.windowsAt = append(e.windowsAt, e.windows)
	e.cur = out
	if e.plant != nil {
		opt := ctrl.SelfHealOptions{
			Seed:      e.stream.Seed(1<<32 | uint64(e.planIdx)),
			BatchSize: e.opt.BatchSize,
		}
		e.planIdx++
		r, err := e.plant.Controller().PlanRepair(out, opt, e.rep)
		if err != nil {
			return fmt.Errorf("chaos: episode %d (%s): plan: %w", i, kind, err)
		}
		e.rep = r
		if r.Done() {
			e.settleRepair(e.t)
		}
	}
	return nil
}

// settleRepair folds a finished repair back into the damage state and
// closes the episodes it covered (unless it degraded to Partial).
func (e *engine) settleRepair(now float64) {
	rep := e.rep.Report()
	e.cur = e.rep.Outcome(fmt.Sprintf("soak-healed-%d", e.planIdx))
	if !rep.Partial {
		for i := range e.episodes {
			if e.episodes[i].Latency < 0 {
				e.episodes[i].Latency = now - e.episodes[i].T
				e.episodes[i].Windows = e.windows - e.windowsAt[i]
			}
		}
	}
}

// Run executes one soak: the live event loop on the virtual clock, then
// the parallel λ measurement over the emitted segments, folded into the
// SLO summary. On context cancellation it returns the partial result
// alongside the error, so an interrupted soak still reports what it saw.
func Run(ctx context.Context, opt Options) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	e := &engine{
		opt:        opt,
		stream:     parallel.NewSeedStream(opt.Seed),
		arrivalRNG: graph.NewRNG(parallel.NewSeedStream(opt.Seed).Seed(1 << 48)),
	}

	var baseline *topo.Network
	if opt.Control {
		f, err := fattree.New(opt.K)
		if err != nil {
			return nil, err
		}
		baseline = f.Net
	} else {
		ft, err := core.BuildIn(core.Params{K: opt.K}, core.ModeGlobalRandom)
		if err != nil {
			return nil, err
		}
		baseline = ft.Net()

		p, err := ctrl.StartPlant(ctx, ft, 5*time.Millisecond, 0)
		if err != nil {
			return nil, err
		}
		defer p.Close()
		e.plant = p
	}
	e.cur = &faults.Outcome{Net: baseline}
	e.nextT = e.interarrival()

	loopErr := e.loop(ctx)
	res, err := e.measure(ctx, baseline)
	if loopErr != nil {
		return res, loopErr
	}
	return res, err
}

// canSpawn reports whether the episode cap still admits a new episode.
func (e *engine) canSpawn() bool {
	return e.opt.MaxEpisodes == 0 || len(e.episodes) < e.opt.MaxEpisodes
}

// loop is the virtual-clock event loop: windows are the atomic time unit,
// episodes are delivered between them, idle time coasts to the next
// arrival.
func (e *engine) loop(ctx context.Context) error {
	for e.t < e.opt.Horizon {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Deliver every episode due by now (due mid-window episodes land
		// here, at the boundary).
		for e.canSpawn() && e.nextT <= e.t {
			if err := e.spawn(ctx); err != nil {
				return err
			}
			e.nextT += e.interarrival()
		}
		if e.rep != nil && !e.rep.Done() {
			// One dark window occupies [t, t+WindowCost).
			w, err := e.rep.Step(ctx)
			if err != nil {
				return err
			}
			if w != nil {
				e.addSpan(e.t, e.opt.WindowCost, "window", true, w.Dark)
				e.t += e.opt.WindowCost
				e.windows++
			}
			if e.rep.Done() {
				e.settleRepair(e.t)
			}
			continue
		}
		// Idle: coast to the next arrival (or the horizon).
		label := "healed"
		if len(e.episodes) == 0 {
			label = "baseline"
		} else if e.damaged() {
			label = "degraded"
		}
		until := e.opt.Horizon
		if e.canSpawn() && e.nextT < until {
			until = e.nextT
		}
		e.addSpan(e.t, until-e.t, label, false, e.currentNet())
		e.t = until
	}
	return nil
}

// damaged reports whether any episode is still unrepaired (open).
func (e *engine) damaged() bool {
	for i := range e.episodes {
		if e.episodes[i].Latency < 0 {
			return true
		}
	}
	return false
}
