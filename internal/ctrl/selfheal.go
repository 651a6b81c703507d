package ctrl

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sort"

	"flattree/internal/core"
	"flattree/internal/faults"
	"flattree/internal/topo"
)

// SelfHealOptions configures an online repair pass.
type SelfHealOptions struct {
	// Seed drives the randomized rewiring plan (faults.Recover). The same
	// (model, damage, Seed) always plans the same repair.
	Seed uint64
	// BatchSize bounds how many pods re-aim their converters per dark
	// window; <= 0 means 1 (most conservative, longest trajectory).
	BatchSize int
	// RequireConnected stops the repair before a window that would
	// partition the live servers, leaving the repair partial rather than
	// splitting the fabric (§2.7 staging discipline applied to recovery).
	RequireConnected bool
}

// maxRetries is how many failed windows a repair absorbs — excluding the
// offending pod and re-planning — before it degrades to a partial repair.
// A successor repair (PlanRepair's prev) inherits what its predecessor
// left.
const maxRetries = 2

// RepairWindow records one executed dark window of a repair: the pods
// whose converters went dark, the epoch the re-aim committed under, the
// §2.7 transition analysis of the window, and the effective network during
// it (for measuring λ mid-repair).
type RepairWindow struct {
	Pods   []int
	Epoch  uint64
	Report core.TransitionReport
	Dark   *topo.Network
}

// RepairReport is the outcome of one repair. Partial repairs are a
// result, not an error — mirroring mcf.Result.Approximate: the report
// says how far the repair got and flags that it stopped short.
type RepairReport struct {
	// DeadPods is the validated, sorted set of pods the repair routed
	// around (set by SelfHeal; empty for a repair planned from an
	// outcome, where the damage is not pod-shaped).
	DeadPods []int
	// FreedPorts/AddedLinks/BrokenLinks/Leftover summarize the rewiring
	// plan (see faults.RecoverReport).
	FreedPorts, AddedLinks, BrokenLinks, Leftover int
	// Windows lists the dark windows actually executed, in order.
	Windows []RepairWindow
	// Excluded lists pods dropped from the repair after their agents
	// failed an exchange; their share of the rewiring never activated.
	// Pods a successor inherits from its predecessor (PlanRepair's prev)
	// are not listed again.
	Excluded []int
	// Partial is set when the repair stopped short: retry budget
	// exhausted, or RequireConnected refused a window.
	Partial bool
	// Degraded is the network right after the failure, before any repair.
	// Healed is the network after the last executed window (equal to the
	// full faults.Recover result when nothing was excluded or refused).
	Degraded, Healed *topo.Network
}

// repairPlan is the model-side bookkeeping of a planned rewiring: which
// pods own which added/broken links, so the effective network at any point
// of the staged execution can be reconstructed.
type repairPlan struct {
	out   *faults.Outcome
	rec   faults.RecoverReport
	podOf []int // node -> pod in the degraded network (-1 for cores)
	// addOwners[i] / brkOwners[j] are the sorted owner pods of added link
	// i / broken link rec.BrokenIDs[j]. An added link activates once ALL
	// its owners have re-aimed (both endpoints must point at each other);
	// a broken link goes down as soon as ANY owner re-aims away from it.
	addOwners, brkOwners [][]int
}

func newRepairPlan(out *faults.Outcome, rec faults.RecoverReport) *repairPlan {
	p := &repairPlan{out: out, rec: rec}
	p.podOf = make([]int, out.Net.N())
	for i, n := range out.Net.Nodes {
		p.podOf[i] = n.Pod
	}
	owners := func(a, b int) []int {
		var o []int
		if pa := p.podOf[a]; pa >= 0 {
			o = append(o, pa)
		}
		if pb := p.podOf[b]; pb >= 0 && (len(o) == 0 || o[0] != pb) {
			o = append(o, pb)
		}
		sort.Ints(o)
		return o
	}
	p.addOwners = make([][]int, len(rec.Added))
	for i, e := range rec.Added {
		p.addOwners[i] = owners(e[0], e[1])
	}
	p.brkOwners = make([][]int, len(rec.BrokenIDs))
	for j, id := range rec.BrokenIDs {
		l := out.Net.Links[id]
		p.brkOwners[j] = owners(l.A, l.B)
	}
	return p
}

// affectedPods returns the sorted union of owner pods across the plan,
// minus pods already re-aimed or excluded: the pods whose converters must
// still re-aim.
func (p *repairPlan) affectedPods(aimed, excluded map[int]bool) []int {
	seen := make(map[int]bool)
	for _, o := range p.addOwners {
		for _, pod := range o {
			seen[pod] = true
		}
	}
	for _, o := range p.brkOwners {
		for _, pod := range o {
			seen[pod] = true
		}
	}
	var pods []int
	for pod := range seen {
		if !aimed[pod] && !excluded[pod] {
			pods = append(pods, pod)
		}
	}
	sort.Ints(pods)
	return pods
}

// downLinks returns the IDs of planned-broken links that are already down
// given which pods have re-aimed (ANY owner aimed takes the link down). A
// link with no owning pods — both endpoints core switches — needs no agent
// coordination, so it goes down immediately, mirroring activeAdds treating
// ownerless added links as up immediately; otherwise a spliced core-core
// add and the link it replaced would both claim the same core port in any
// intermediate state.
func (p *repairPlan) downLinks(aimed map[int]bool) map[int]bool {
	anyAimed := func(o []int) bool {
		if len(o) == 0 {
			return true
		}
		for _, pod := range o {
			if aimed[pod] {
				return true
			}
		}
		return false
	}
	down := make(map[int]bool)
	for j, id := range p.rec.BrokenIDs {
		if anyAimed(p.brkOwners[j]) {
			down[id] = true
		}
	}
	return down
}

// activeAdds returns the indices into rec.Added of links that are up:
// every owner has re-aimed (and none is excluded), and both endpoints have
// a port physically free given which planned breaks have executed (down).
// The second condition matters when ownership alone would activate an add
// early — an ownerless core-core add whose port is freed by an owned break
// that hasn't run yet must stay pending, or the intermediate state would
// wire two links into one port. Adds are considered in plan order, so the
// feasible subset is deterministic.
func (p *repairPlan) activeAdds(aimed, excluded, down map[int]bool) []int {
	nw := p.out.Net
	free := make([]int, nw.N())
	for i, n := range nw.Nodes {
		free[i] = n.Ports
	}
	for _, l := range nw.Links {
		if !down[l.ID] {
			free[l.A]--
			free[l.B]--
		}
	}
	var active []int
	for i, o := range p.addOwners {
		up := true
		for _, pod := range o {
			if !aimed[pod] || excluded[pod] {
				up = false
				break
			}
		}
		e := p.rec.Added[i]
		if !up || free[e[0]] <= 0 || free[e[1]] <= 0 {
			continue
		}
		free[e[0]]--
		free[e[1]]--
		active = append(active, i)
	}
	return active
}

// buildState builds the effective network given which pods have re-aimed
// (aimed), which are permanently excluded, and which are currently dark
// (mid-flip: all their rewirable-tagged links are absent, §2.7).
func (p *repairPlan) buildState(name string, aimed, excluded, dark map[int]bool) *topo.Network {
	nw := p.out.Net
	isDark := func(a, b int, tag topo.LinkTag) bool {
		if !faults.DefaultRewirable(tag) {
			return false
		}
		return dark[p.podOf[a]] || dark[p.podOf[b]]
	}
	down := p.downLinks(aimed)
	b := topo.NewBuilder(name)
	b.Reserve(len(nw.Nodes), len(nw.Links)+len(p.rec.Added))
	for _, n := range nw.Nodes {
		b.AddNode(n.Kind, n.Pod, n.Index, n.Ports)
	}
	for _, l := range nw.Links {
		if down[l.ID] || isDark(l.A, l.B, l.Tag) {
			continue
		}
		b.AddLink(l.A, l.B, l.Tag)
	}
	for _, i := range p.activeAdds(aimed, excluded, down) {
		e := p.rec.Added[i]
		if isDark(e[0], e[1], topo.TagRandom) {
			continue
		}
		b.AddLink(e[0], e[1], topo.TagRandom)
	}
	return b.Build()
}

// Repair is an in-flight online repair: a planned rewiring being driven
// through the surviving pods' agents one dark window at a time. It is the
// resumable form of SelfHeal — callers that interleave repair with other
// work (a chaos soak delivering new failures mid-repair) call Step per
// window, snapshot the current fabric via Outcome when a new episode
// lands, and plan the composed damage as this repair's successor
// (PlanRepair with prev).
type Repair struct {
	c        *Controller
	ft       *core.FlatTree
	opt      SelfHealOptions
	out      *faults.Outcome
	healed   *topo.Network // the atomic faults.Recover end state
	plan     *repairPlan   // nil when there was nothing to rewire
	aimed    map[int]bool
	excluded map[int]bool
	pending  []int
	retries  int
	rep      *RepairReport
	done     bool
}

// PlanRepair plans an online repair of arbitrary damage: it rewires the
// ports the failure freed (faults.Recover on the given outcome) and
// prepares the staged execution, without touching any agent yet. The
// outcome may carry several composed episodes (faults.Compose); the plan
// covers all of its unconsumed freed ports at once.
//
// A non-nil prev is the repair this one succeeds, typically planned on
// prev's own Outcome snapshot with a new episode composed onto it: the
// successor inherits prev's excluded pods, which never re-aim, and the
// retry budget prev has left. A nil prev starts with neither exclusions
// nor spent retries.
func (c *Controller) PlanRepair(out *faults.Outcome, opt SelfHealOptions, prev *Repair) (*Repair, error) {
	excluded, retries := map[int]bool(nil), maxRetries
	if prev != nil {
		excluded, retries = prev.excluded, prev.retries
	}
	ft := c.FlatTree()

	healed, rec, err := faults.Recover(out, faults.RecoverOptions{Seed: opt.Seed, Rewirable: faults.DefaultRewirable})
	if err != nil {
		return nil, err
	}
	r := &Repair{
		c: c, ft: ft, opt: opt, out: out, healed: healed,
		aimed:    make(map[int]bool),
		excluded: make(map[int]bool, len(excluded)),
		retries:  retries,
		rep: &RepairReport{
			FreedPorts: rec.FreedPorts, AddedLinks: rec.AddedLinks,
			BrokenLinks: rec.BrokenLinks, Leftover: rec.Leftover,
			Degraded: out.Net,
		},
	}
	maps.Copy(r.excluded, excluded)
	if rec.AddedLinks == 0 && rec.BrokenLinks == 0 {
		// Nothing to rewire (e.g. fewer than two freed rewirable ports).
		r.finish()
		return r, nil
	}
	r.plan = newRepairPlan(out, rec)
	r.pending = r.plan.affectedPods(r.aimed, r.excluded)
	if len(r.pending) == 0 {
		// Every affected pod was inherited as excluded; the plan cannot
		// execute.
		r.finish()
	}
	return r, nil
}

// Step executes at most one successful dark window over the control
// connections, returning it. Pod-attributable exchange failures are
// absorbed inside the call (exclude, re-plan, try the next window) while
// retry budget remains. A nil window with nil error means the repair is
// finished — either fully, or degraded to Partial (retry budget exhausted,
// or RequireConnected refused the window). Only context cancellation is
// returned as an error, with the repair left resumable.
func (r *Repair) Step(ctx context.Context) (*RepairWindow, error) {
	if r.done {
		return nil, nil
	}
	for len(r.pending) > 0 {
		n := min(max(r.opt.BatchSize, 1), len(r.pending))
		window := r.pending[:n]

		darkSet := make(map[int]bool, len(window))
		for _, p := range window {
			darkSet[p] = true
		}
		darkNet := r.plan.buildState(fmt.Sprintf("%s+window%d", r.out.Net.Name, len(r.rep.Windows)), r.aimed, r.excluded, darkSet)
		wrep := core.AnalyzeNetwork(darkNet)
		if r.opt.RequireConnected && !wrep.Connected {
			r.rep.Partial = true
			r.finish()
			return nil, nil
		}

		// The re-aim command: each window pod's full current configuration.
		// Modes don't change during a repair — the pod re-aims its
		// converter ports at the planned peers under its existing config —
		// so the payload is the pod's config restated under a fresh epoch,
		// carried through the same stage/commit machinery (and the same
		// monotone-epoch guarantees) as a conversion.
		entries := make(map[uint32][]ConfigEntry, len(window))
		for _, p := range window {
			entries[uint32(p)] = ConfigsForPod(r.ft, p)
		}
		epoch, err := r.c.convertEntries(ctx, entries, nil)
		if err != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("ctrl: self-heal: %w", err)
			}
			var pe *PodError
			if errors.As(err, &pe) && r.retries > 0 {
				r.retries--
				r.excluded[int(pe.Pod)] = true
				r.rep.Excluded = append(r.rep.Excluded, int(pe.Pod))
				r.pending = r.plan.affectedPods(r.aimed, r.excluded)
				continue
			}
			r.rep.Partial = true
			r.finish()
			return nil, nil
		}

		for _, p := range window {
			r.aimed[p] = true
		}
		r.rep.Windows = append(r.rep.Windows, RepairWindow{
			Pods: append([]int(nil), window...), Epoch: epoch,
			Report: wrep, Dark: darkNet,
		})
		r.pending = r.pending[n:]
		if len(r.pending) == 0 {
			r.finish()
		}
		return &r.rep.Windows[len(r.rep.Windows)-1], nil
	}
	r.finish()
	return nil, nil
}

// finish freezes the repair and computes the Healed end state.
func (r *Repair) finish() {
	if r.done {
		return
	}
	r.done = true
	if r.plan == nil || (len(r.excluded) == 0 && !r.rep.Partial) {
		// Every owner re-aimed: the staged end state is exactly the
		// atomic faults.Recover result.
		r.rep.Healed = r.healed
	} else {
		r.rep.Healed = r.plan.buildState(r.out.Net.Name+"+recovered", r.aimed, r.excluded, nil)
	}
	sort.Ints(r.rep.Excluded)
}

// Done reports whether the repair has finished (fully or Partial).
func (r *Repair) Done() bool { return r.done }

// Report returns the repair's report. Healed is only set once Done.
func (r *Repair) Report() *RepairReport { return r.rep }

// Excluded returns the sorted set of pods this repair never re-aims: those
// it inherited from its predecessor and those it dropped itself.
func (r *Repair) Excluded() []int {
	var pods []int
	for p := range r.excluded {
		pods = append(pods, p)
	}
	sort.Ints(pods)
	return pods
}

// CurrentNet returns the effective fabric right now, between windows (no
// pod dark). After Done it equals Report().Healed.
func (r *Repair) CurrentNet() *topo.Network {
	if r.done {
		return r.rep.Healed
	}
	if r.plan == nil {
		return r.out.Net
	}
	return r.plan.buildState(r.out.Net.Name+"+partial", r.aimed, r.excluded, nil)
}

// Outcome snapshots the in-flight repair as a faults.Outcome so a new
// failure episode can land mid-repair: faults.Compose the new scenario
// onto it, then plan the composed damage as r's successor (PlanRepair with
// prev r). Executed windows are kept — their added links are real links of
// the snapshot — while the unexecuted remainder returns to the
// freed-port ledger: ports of already-broken planned links count as freed
// again, and each endpoint of an activated added link has consumed one
// rewirable freed port.
func (r *Repair) Outcome(name string) *faults.Outcome {
	o := &faults.Outcome{
		FailedSwitches: r.out.FailedSwitches,
		FailedLinks:    r.out.FailedLinks,
	}
	if r.plan == nil {
		o.Net = r.out.Net
		o.Pinned = r.out.Pinned
		o.Freed = r.out.Freed
		o.PinnedLinks = r.out.PinnedLinks
		return o
	}
	// buildState keeps node IDs, so the ledger carries index-for-index.
	freed := make([][]topo.LinkTag, r.out.Net.N())
	for v, tags := range r.out.Freed {
		if len(tags) > 0 {
			freed[v] = append([]topo.LinkTag(nil), tags...)
		}
	}
	down := r.plan.downLinks(r.aimed)
	downIDs := make([]int, 0, len(down))
	for id := range down {
		downIDs = append(downIDs, id)
	}
	sort.Ints(downIDs)
	for _, id := range downIDs {
		l := r.out.Net.Links[id]
		freed[l.A] = append(freed[l.A], l.Tag)
		freed[l.B] = append(freed[l.B], l.Tag)
	}
	consume := func(v int) {
		for i, tag := range freed[v] {
			if faults.DefaultRewirable(tag) {
				freed[v] = append(freed[v][:i:i], freed[v][i+1:]...)
				return
			}
		}
	}
	var pinned []bool
	for _, l := range r.out.Net.Links {
		if down[l.ID] {
			continue
		}
		pin := r.out.Pinned != nil && r.out.Pinned[l.ID]
		pinned = append(pinned, pin)
		if pin {
			o.PinnedLinks++
		}
	}
	for _, i := range r.plan.activeAdds(r.aimed, r.excluded, down) {
		e := r.plan.rec.Added[i]
		consume(e[0])
		consume(e[1])
		pinned = append(pinned, false)
	}
	o.Net = r.plan.buildState(name, r.aimed, r.excluded, nil)
	o.Pinned = pinned
	o.Freed = freed
	return o
}

// SelfHeal routes the fabric around a set of dead pods, online: it plans a
// rewiring of the ports the failure freed (faults.Fail + faults.Recover),
// then drives the surviving pods' agents through the re-aim in batches of
// BatchSize dark windows, each a real two-phase epoch over the control
// connections. The §2.7 transition state during every window is analyzed
// and captured so the caller can measure throughput mid-repair.
//
// A window whose agent exchange fails in a way attributable to one pod
// (send failure, rejection, dead connection) consumes one retry: the pod
// is excluded and the remaining plan continues without it. When the retry
// budget runs out — or RequireConnected refuses a window — the repair
// degrades to a partial result with Partial set, rather than failing.
// Only plan-level errors and context cancellation are returned as errors.
//
// The dead pods are typically confirmed via WaitForFailures;
// SelfHeal itself takes them as input so policy (how long to wait, how
// many concurrent failures to batch into one repair) stays with the
// caller.
func (c *Controller) SelfHeal(ctx context.Context, deadPods []int, opt SelfHealOptions) (*RepairReport, error) {
	ft := c.FlatTree()
	k := ft.Params.K
	seen := make(map[int]bool, len(deadPods))
	dead := make([]int, 0, len(deadPods))
	for _, p := range deadPods {
		if p < 0 || p >= k {
			return nil, fmt.Errorf("ctrl: dead pod %d out of range [0,%d)", p, k)
		}
		if !seen[p] {
			seen[p] = true
			dead = append(dead, p)
		}
	}
	sort.Ints(dead)
	if len(dead) == 0 {
		return nil, errors.New("ctrl: self-heal needs at least one dead pod")
	}

	// Translate pod death into equipment failure: every switch of a dead
	// pod goes down (its servers go with it, and its cables free ports on
	// surviving peers).
	nw := ft.Net()
	var switches []int
	for _, s := range nw.Switches() {
		if seen[nw.Nodes[s].Pod] {
			switches = append(switches, s)
		}
	}
	out, err := faults.Fail(nw, faults.Scenario{Switches: switches, Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	r, err := c.PlanRepair(out, opt, nil)
	if err != nil {
		return nil, err
	}
	r.rep.DeadPods = dead
	for !r.done {
		if _, err := r.Step(ctx); err != nil {
			return r.rep, err
		}
	}
	return r.rep, nil
}
