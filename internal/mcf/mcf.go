// Package mcf solves the maximum concurrent multi-commodity flow problem
// the flat-tree paper uses as its throughput metric (§3.1, citing Leighton
// & Rao): maximize λ such that every commodity (src, dst, demand) can ship
// λ·demand simultaneously over a network whose switch-switch links have one
// unit of capacity each. Per the paper, server access links are relaxed
// (uncapacitated), so commodities are aggregated to host-switch pairs and
// routing is optimal (not restricted to any path system).
//
// Every experiment solves through one entry, MaxConcurrentFlow, and a solve
// is a pure function of its own instance: nothing but recycled scratch memory
// survives from one call to the next. A general instance runs the
// Fleischer/Garg-Könemann FPTAS over a source-grouped shortest-path-tree
// oracle: it scales to the paper's k=32 (thousands of switches, tens of
// thousands of aggregated commodities) and reports both a feasible primal λ
// and an LP-dual upper bound, so every experiment knows its true accuracy. A
// star-shaped instance — every commodity shares one endpoint switch, the
// paper's single hot spot — is a single-commodity problem and is solved
// exactly by parametric max-flow (star.go). MaxConcurrentFlowExact, the
// edge-based LP solved with internal/lp, is the small-instance reference the
// tests validate both against.
package mcf

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"flattree/internal/graph"
	"flattree/internal/lp"
	"flattree/internal/topo"
)

// Commodity is a demand between two nodes of the network. Src and Dst may
// be servers (aggregated to their host switches) or switches.
type Commodity struct {
	Src, Dst int
	Demand   float64
}

// Options tunes the approximation.
type Options struct {
	// Epsilon is the FPTAS accuracy parameter (default 0.08). Smaller is
	// more accurate and slower; the reported DualGap tells the truth
	// regardless.
	Epsilon float64
	// MaxPhases bounds the outer loop as a safety valve (default 1<<20).
	MaxPhases int
	// SkipDualBound disables the FPTAS's once-per-phase dual bound
	// computation and its final dual sweep (UpperBound is then +Inf). The
	// exact path ignores it: its min cut is the bound, at no extra cost.
	SkipDualBound bool
	// TimeBudget bounds the solver's wall-clock time (0 means unbounded).
	// On exhaustion the solver degrades gracefully: the flow accumulated
	// so far is scaled down to feasibility and returned as a valid — but
	// possibly well-below-optimal — Lambda, with Approximate set. This is
	// a budget, not a cancellation: use the context to abort outright.
	// A context deadline additionally caps the budget (minus a small
	// safety margin), so a client timeout degrades to an approximate λ
	// rather than erroring — deadline propagation for serving paths. The
	// exact path takes milliseconds and has no partial answer to degrade
	// to: it ignores the budget, and an expired context is an error there.
	TimeBudget time.Duration
}

// Result reports a solve.
type Result struct {
	// Lambda is a feasible concurrent throughput: every commodity can ship
	// Lambda × its demand simultaneously.
	Lambda float64
	// UpperBound is an LP-dual certificate: no feasible solution exceeds
	// it. +Inf when not computed. A converged FPTAS solve reports the
	// smaller of the best per-phase bound and the exact dual value
	// D(l)/α(l) of its final length function; a budget-stopped
	// (Approximate) solve has no time for that last sweep and reports the
	// per-phase bound alone. An exact (star) solve reports the ratio of its
	// minimum cut, which Lambda meets up to rounding.
	UpperBound float64
	// Phases counts *completed* phases: full passes over every source in
	// which each commodity shipped one round of its demand — the demand as
	// normalized at that point, which the in-flight renormalization only
	// ever raises, so later phases ship more. A solve cut short by
	// TimeBudget or a mid-phase convergence break does not count the
	// partial phase, and the final dual sweep is not a phase. Dijkstras
	// counts every shortest-path pass the solve ran, including the
	// demand-scaling probe's and the final dual sweep's. Both are 0 for an
	// exact (star) solve, which runs neither phases nor shortest paths.
	Phases    int
	Dijkstras int
	// Approximate reports that the solver stopped on a budget (TimeBudget
	// or MaxPhases) before reaching its ε guarantee. Lambda is still
	// feasible, and DualGap still tells the truth about how far off it
	// might be; the flag only says the usual (1-ε)-optimality promise no
	// longer applies.
	Approximate bool
	// WarmStarted is always false: no solve is seeded from another. The
	// field stays only because benchmark/ reads it, and goes with that read
	// (ROADMAP item 1).
	WarmStarted bool
}

// DualGap returns UpperBound/Lambda - 1, the proven relative optimality
// gap, or +Inf when the bound was not computed.
func (r Result) DualGap() float64 {
	//flatlint:ignore floatcmp Lambda is exactly 0 iff the solver routed nothing
	if math.IsInf(r.UpperBound, 1) || r.Lambda == 0 {
		return math.Inf(1)
	}
	return r.UpperBound/r.Lambda - 1
}

type aggCommodity struct {
	dst    int32
	demand float64
	id     int32
}

// spair is a pre-merge (source, destination, demand) triple.
type spair struct {
	s, t   int32
	demand float64
}

// problem is the aggregated switch-level instance. Its storage is flat
// slices grouped by source (no maps) precisely so a pooled instance can be
// refilled without allocating: experiment sweeps solve thousands of
// same-shaped instances back to back.
type problem struct {
	g       *graph.Graph // switch-level graph
	cap     []float64    // per-edge capacity
	node    []int        // problem node -> network node (the network's own switch list: read-only)
	srcs    []int32      // commodity sources in ascending order
	srcOff  []int32      // comms offsets per source; len(srcs)+1 entries
	comms   []aggCommodity
	numComm int

	idx   []int32 // scratch: network node -> switch index, -1 for servers
	pairs []spair // scratch: pre-merge triples
}

// commsOf returns the aggregated commodities of the si-th source.
func (p *problem) commsOf(si int) []aggCommodity {
	return p.comms[p.srcOff[si]:p.srcOff[si+1]]
}

// aggregate maps commodities to switch pairs and merges duplicates,
// refilling pr in place. Same-switch commodities are dropped: with
// uncapacitated server links they are satisfiable at any λ and never bind.
//
// Duplicate (src, dst) pairs are merged by a stable sort followed by an
// adjacent sum, so demands accumulate in input order — the same order the
// map-based predecessor of this code used — keeping solves bit-identical.
func aggregate(nw *topo.Network, commodities []Commodity, pr *problem) error {
	sw := nw.Switches()
	pr.node = sw
	if cap(pr.idx) < nw.N() {
		pr.idx = make([]int32, nw.N())
	}
	idx := pr.idx[:nw.N()]
	for i := range idx {
		idx[i] = -1
	}
	for i, s := range sw {
		idx[s] = int32(i)
	}
	if pr.g == nil {
		pr.g = graph.New(len(sw))
	} else {
		pr.g.Reset(len(sw))
	}
	pr.cap = pr.cap[:0]
	for _, l := range nw.Links {
		if nw.Nodes[l.A].Kind.IsSwitch() && nw.Nodes[l.B].Kind.IsSwitch() {
			pr.g.AddEdge(int(idx[l.A]), int(idx[l.B]))
			pr.cap = append(pr.cap, 1)
		}
	}
	toSwitch := func(v int) (int32, error) {
		if v < 0 || v >= nw.N() {
			return 0, fmt.Errorf("mcf: node %d out of range", v)
		}
		if nw.Nodes[v].Kind.IsSwitch() {
			return idx[v], nil
		}
		h := nw.HostSwitch(v)
		if h < 0 {
			return 0, fmt.Errorf("mcf: server %d has no host switch", v)
		}
		return idx[h], nil
	}
	pr.pairs = pr.pairs[:0]
	for _, c := range commodities {
		if c.Demand <= 0 {
			return fmt.Errorf("mcf: non-positive demand %g", c.Demand)
		}
		s, err := toSwitch(c.Src)
		if err != nil {
			return err
		}
		t, err := toSwitch(c.Dst)
		if err != nil {
			return err
		}
		if s == t {
			continue
		}
		pr.pairs = append(pr.pairs, spair{s: s, t: t, demand: c.Demand})
	}
	slices.SortStableFunc(pr.pairs, func(a, b spair) int {
		if a.s != b.s {
			return int(a.s) - int(b.s)
		}
		return int(a.t) - int(b.t)
	})
	pr.srcs, pr.srcOff, pr.comms = pr.srcs[:0], pr.srcOff[:0], pr.comms[:0]
	pr.numComm = 0
	for i := 0; i < len(pr.pairs); {
		p := pr.pairs[i]
		d := p.demand
		j := i + 1
		for ; j < len(pr.pairs) && pr.pairs[j].s == p.s && pr.pairs[j].t == p.t; j++ {
			d += pr.pairs[j].demand
		}
		if len(pr.srcs) == 0 || pr.srcs[len(pr.srcs)-1] != p.s {
			pr.srcs = append(pr.srcs, p.s)
			pr.srcOff = append(pr.srcOff, int32(len(pr.comms)))
		}
		pr.comms = append(pr.comms, aggCommodity{dst: p.t, demand: d, id: int32(pr.numComm)})
		pr.numComm++
		i = j
	}
	pr.srcOff = append(pr.srcOff, int32(len(pr.comms)))
	return nil
}

// arena is the per-solve scratch reused across every phase, iteration, and
// the probe pass: one Dijkstra workspace plus dense per-edge, per-commodity,
// and per-destination state with touched stacks. Nothing in the steady-state
// FPTAS loop allocates, and arenas themselves are pooled across solves —
// experiment sweeps run thousands of same-shaped instances back to back, so
// after warm-up a whole solve allocates only its Result.
type arena struct {
	ws      *graph.Workspace
	req     []float64 // per-edge flow requested this iteration (len M)
	length  []float64 // per-edge FPTAS length function (len M)
	touched []int32   // edges with req != 0
	rem     []float64 // per-destination demand left this phase (len N)
	remID   []int32   // per-destination commodity id for the current source
	active  []int32   // destinations with remaining demand, ascending
	routed  []float64 // per-commodity flow accumulated so far (len numComm)
	flow    []float64 // per-edge flow accumulated so far, in units of cap_e (len M)
}

// solveState pairs an aggregated problem with the scratch of both solve
// paths; they are pooled as a unit because the workspaces stay bound to the
// problem's (reused) graph.
type solveState struct {
	pr   problem
	ar   arena
	star starArena
}

var statePool sync.Pool

// getState pops a pooled solve state (or builds an empty one). Pooling
// cannot affect results: aggregate refills every problem slice it reads
// and bind zeroes every arena slice the solver accumulates into, so a
// recycled state is indistinguishable from a fresh one.
func getState() *solveState {
	st, ok := statePool.Get().(*solveState)
	if !ok {
		st = &solveState{}
	}
	return st
}

func putState(st *solveState) { statePool.Put(st) }

// bind sizes the arena for pr, reusing backing arrays whose capacity
// suffices. req, length, routed, and flow are accumulated into with += by
// the solver and must start zero; rem and remID are fully written before
// each read, so stale values there are harmless.
func (ar *arena) bind(pr *problem) {
	n, m := pr.g.N(), pr.g.M()
	if ar.ws == nil {
		ar.ws = pr.g.NewWorkspace()
	} else {
		ar.ws.Rebind(pr.g)
	}
	ar.req = zeroed(ar.req, m)
	ar.length = zeroed(ar.length, m)
	ar.routed = zeroed(ar.routed, pr.numComm)
	ar.flow = zeroed(ar.flow, m)
	ar.rem = resized(ar.rem, n)
	if cap(ar.remID) < n {
		ar.remID = make([]int32, n)
	} else {
		ar.remID = ar.remID[:n]
	}
	if cap(ar.touched) < m {
		ar.touched = make([]int32, 0, m)
	}
	ar.touched = ar.touched[:0]
	ar.active = ar.active[:0]
}

// zeroed returns s resized to n with every element zero, reusing the
// backing array when it is large enough.
func zeroed(s []float64, n int) []float64 {
	s = resized(s, n)
	for i := range s {
		s[i] = 0
	}
	return s
}

// resized returns s with length n, reusing capacity; contents are
// unspecified.
func resized(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// MaxConcurrentFlow solves one instance: exactly when it is star-shaped,
// with the FPTAS otherwise. All commodity endpoints must be connected;
// disconnected pairs yield an error.
//
// The context is checked between shortest-path iterations (including the
// demand-scaling probe's) and between max-flow rounds: cancellation aborts
// the solve and returns ctx.Err(). Options.TimeBudget instead ends the
// FPTAS's phase loop early with the best feasible λ found so far (flagged
// Approximate); an exact solve has nothing to cut short and ignores it.
func MaxConcurrentFlow(ctx context.Context, nw *topo.Network, commodities []Commodity, opt Options) (Result, error) {
	st := getState()
	defer putState(st)
	return st.solve(ctx, nw, commodities, opt)
}

// solve runs one solve on st: it validates the options, aggregates the
// instance, and hands a star-shaped one (a single hot spot, see stageStar) to
// the exact max-flow path and everything else to the FPTAS. The dispatch is
// on what the input is, not on a knob: a single-source instance is the
// FPTAS's worst case — a tree oracle sends the source's whole phase over its
// cheapest out-link, so it needs deg(src) shortest-path passes per phase to
// learn what one min cut states.
func (st *solveState) solve(ctx context.Context, nw *topo.Network, commodities []Commodity, opt Options) (Result, error) {
	if opt.Epsilon <= 0 {
		opt.Epsilon = 0.08
	}
	if opt.Epsilon >= 0.5 {
		return Result{}, fmt.Errorf("mcf: epsilon %g too large (need < 0.5)", opt.Epsilon)
	}
	if opt.MaxPhases <= 0 {
		opt.MaxPhases = 1 << 20
	}
	if err := aggregate(nw, commodities, &st.pr); err != nil {
		return Result{}, err
	}
	if st.pr.numComm == 0 {
		return Result{Lambda: math.Inf(1), UpperBound: math.Inf(1)}, nil
	}
	if st.stageStar() {
		return st.solveStar(ctx)
	}
	return st.fptas(ctx, opt)
}

// fptas runs the Garg-Könemann/Fleischer scheme on the aggregated problem in
// st.pr, whose demands it rescales in place. opt must carry a valid Epsilon
// and a positive MaxPhases (solve fills in the defaults).
func (st *solveState) fptas(ctx context.Context, opt Options) (Result, error) {
	pr := &st.pr
	ar := &st.ar
	ar.bind(pr)
	res := Result{UpperBound: math.Inf(1)}

	eps := opt.Epsilon

	// Demand pre-scaling: the Garg-Könemann phase count is ~OPT·log(m)/ε²
	// *after* normalization, so an instance with tiny OPT (e.g. one hot
	// spot against a whole fabric) would stop after a fraction of a phase,
	// quantizing λ badly and leaving late sources unrouted. A one-sweep
	// shortest-path load probe estimates OPT within the path-stretch
	// factor; scaling demands by it normalizes OPT to Θ(1). The normalizer
	// is just a change of units, undone when λ is scaled back at the end,
	// so this affects work and λ quantization granularity, never
	// correctness — and it is only the starting guess: the phase loop below
	// renormalizes upward whenever the flow it holds proves the guess low.
	lambdaHat, err := pr.probeScale(ctx, ar, &res)
	if err != nil {
		return Result{}, err
	}
	for i := range pr.comms {
		pr.comms[i].demand *= lambdaHat
	}

	m := pr.g.M()
	delta, scale := gkConstants(eps, m)
	length := ar.length
	sumLC := 0.0 // D(l) = sum_e length_e * cap_e
	for e := 0; e < m; e++ {
		length[e] = delta / pr.cap[e]
		sumLC += length[e] * pr.cap[e]
	}

	routed, flow := ar.routed, ar.flow
	congestion := 0.0 // max_e flow_e, kept as flow accumulates
	var deadline time.Time
	if opt.TimeBudget > 0 {
		deadline = time.Now().Add(opt.TimeBudget) //flatlint:ignore clockwall TimeBudget is an explicit wall-clock cap; it bounds work, never the answer for a converged run
	}
	// Deadline propagation: a context deadline also arms (or tightens) the
	// budget deadline, so a client timeout degrades the solve to a valid
	// approximate λ instead of tearing it down mid-phase with a hard
	// error. A margin is reserved ahead of the context deadline so the
	// degrade path wins the race against the ctx.Err() check — shrinking
	// with the remaining time so chained solves under one request deadline
	// each still get a positive budget. (The demand-scaling probe above is
	// context-checked but unbudgeted: a deadline shorter than the probe
	// still surfaces as a context error.)
	if d, ok := ctx.Deadline(); ok {
		//flatlint:ignore clockwall converting the context's wall-clock deadline into a budget deadline; bounds work, never the answer for a converged run
		remaining := time.Until(d)
		margin := remaining / 8
		if margin > 100*time.Millisecond {
			margin = 100 * time.Millisecond
		}
		if margin < 200*time.Microsecond {
			margin = 200 * time.Microsecond
		}
		if cd := d.Add(-margin); deadline.IsZero() || cd.Before(deadline) {
			deadline = cd
		}
	}
	converged := false

phases:
	for phase := 1; phase <= opt.MaxPhases; phase++ {
		dualAlpha, dualD := 0.0, 0.0
		for si, src := range pr.srcs {
			comms := pr.commsOf(si)
			ar.active = ar.active[:0]
			for _, c := range comms {
				ar.rem[c.dst] = c.demand
				ar.remID[c.dst] = c.id
				ar.active = append(ar.active, c.dst)
			}
			firstIteration := true
			for len(ar.active) > 0 {
				if err := ctx.Err(); err != nil {
					return Result{}, err
				}
				//flatlint:ignore clockwall checking the explicit TimeBudget deadline; degrades to best-so-far, never changes a converged result
				if !deadline.IsZero() && time.Now().After(deadline) {
					break phases // budget spent: degrade to best-so-far λ
				}
				if sumLC >= 1 {
					converged = true
					break phases
				}
				// Batched oracle: one pass serves every remaining commodity
				// of the source and stops once all of them have settled.
				// Settled results are bit-identical to a full Dijkstra, so
				// the early stop is pure savings. The radix-heap kernel
				// settles in the 4-ary heap's (dist, id) order at any length
				// spread — here ~1e33 between the δ floor and used edges.
				ar.ws.DeltaStepTargets(int(src), length, ar.active)
				res.Dijkstras++
				dist, prev := ar.ws.Dist, ar.ws.Prev
				if firstIteration && !opt.SkipDualBound {
					for _, c := range comms {
						dualAlpha += c.demand * dist[c.dst]
					}
					dualD = sumLC
					firstIteration = false
				}
				// Requested flow per edge if every remaining demand were
				// sent fully along its shortest path. Destinations are
				// walked in ascending order, so the floating-point
				// accumulation order — and hence the solve — is
				// deterministic (the map-based predecessor of this loop
				// was not).
				ar.touched = ar.touched[:0]
				for _, dst := range ar.active {
					if math.IsInf(dist[dst], 1) {
						return Result{}, fmt.Errorf("mcf: commodity %d->%d disconnected",
							pr.node[src], pr.node[dst])
					}
					rem := ar.rem[dst]
					for v := dst; v != src; {
						e := prev[v]
						if ar.req[e] == 0 { //flatlint:ignore floatcmp req is exactly 0 iff the edge is untouched; demands are strictly positive
							ar.touched = append(ar.touched, e)
						}
						ar.req[e] += rem
						v = pr.g.Edge(int(e)).Other(v)
					}
				}
				// Largest uniform fraction that respects per-step capacity.
				alpha := 1.0
				for _, e := range ar.touched {
					if a := pr.cap[e] / ar.req[e]; a < alpha {
						alpha = a
					}
				}
				keep := ar.active[:0]
				for _, dst := range ar.active {
					f := alpha * ar.rem[dst]
					routed[ar.remID[dst]] += f
					if alpha < 1-1e-15 {
						ar.rem[dst] -= f
						keep = append(keep, dst)
					}
				}
				ar.active = keep
				for _, e := range ar.touched {
					sent := alpha * ar.req[e] / pr.cap[e]
					old := length[e]
					length[e] = old * (1 + eps*sent)
					sumLC += (length[e] - old) * pr.cap[e]
					flow[e] += sent
					if flow[e] > congestion {
						congestion = flow[e]
					}
					ar.req[e] = 0
				}
			}
		}
		// Count the phase only now that every source completed it: a budget
		// or convergence break above leaves the partial phase uncounted.
		res.Phases = phase
		shipped := minRouted(pr, routed)
		if !opt.SkipDualBound && dualAlpha > 0 {
			// Weak duality: OPT <= D(l)/alpha(l) for any lengths l. The
			// alpha terms were measured source by source while lengths only
			// grew, so each is at most its value under the lengths in force
			// when the last one was taken; dividing D as it stood then
			// (dualD) by their sum is a valid bound, and exact for a
			// single-source instance.
			res.UpperBound = min(res.UpperBound, dualD/dualAlpha*lambdaHat)
			// Early termination: the scaled-down flow is feasible at any
			// point, so once the feasible λ is within ε of the dual bound
			// there is nothing left to gain. This test keeps the
			// end-of-phase D, one phase of growth looser than dualD: the
			// scaled λ is itself a few percent conservative, and against
			// the tight bound it would stop few-source solves the moment
			// they came within ε of OPT, about 5 % short of where the
			// sumLC stop takes them (fig7 cells, for 2 % of the calls).
			if shipped > 0 && sumLC/dualAlpha <= shipped/scale*(1+eps) {
				converged = true
				break phases
			}
		}
		// Renormalization ratchet. The flow held so far, scaled down by its
		// worst edge congestion, is feasible and ships every commodity
		// shipped/congestion of its demand: a proven lower bound on OPT in
		// the current units. When it clears 1+ε the normalizer was low —
		// each phase ships less than it could, and the phase count is
		// normalized OPT times scale — so raise every demand (and
		// lambdaHat, the units bookkeeping) by exactly that factor and
		// carry on with the same lengths and the same routed flow.
		// Normalized OPT stays ≥ 1 because the factor is a lower bound on
		// it, which is all the Garg-Könemann argument asks of a phase
		// (DESIGN.md §4), and λ is unit-free: routed/demand·lambdaHat does
		// not move. congestion > 0 here: a completed phase shipped every
		// (positive, cross-switch) demand over at least one edge.
		if lb := shipped / congestion; lb > 1+eps {
			for i := range pr.comms {
				pr.comms[i].demand *= lb
			}
			lambdaHat *= lb
		}
	}
	res.Approximate = !converged
	res.Lambda = minRouted(pr, routed) / scale * lambdaHat

	// Exact final dual. Bigger late phases loosen the per-phase bound above
	// (its alpha terms predate most of a phase of length growth), so a
	// converged solve measures D(l)/alpha(l) once under its final lengths:
	// one distance-only pass per source, context-checked but unbudgeted
	// like the probe. Budget-stopped solves skip it — they have no time
	// left — and keep the running bound.
	if converged && !opt.SkipDualBound {
		d, alpha := 0.0, 0.0
		for e, l := range length {
			d += l * pr.cap[e]
		}
		for si := range pr.srcs {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
			pr.sourcePass(ar, si, length)
			res.Dijkstras++
			for _, c := range pr.commsOf(si) {
				alpha += c.demand * ar.ws.Dist[c.dst]
			}
		}
		res.UpperBound = min(res.UpperBound, d/alpha*lambdaHat)
	}
	return res, nil
}

// sourcePass runs one shortest-path pass under length from the si-th source
// to every destination it has a commodity for, staging the target list in
// ar.active and leaving distances and predecessors in ar.ws.
func (p *problem) sourcePass(ar *arena, si int, length []float64) {
	ar.active = ar.active[:0]
	for _, c := range p.commsOf(si) {
		ar.active = append(ar.active, c.dst)
	}
	ar.ws.DeltaStepTargets(int(p.srcs[si]), length, ar.active)
}

// gkConstants returns the Garg-Könemann start length δ (times 1/cap_e per
// edge) for an m-edge instance at accuracy eps, and the feasibility scale
// log_{1+eps}((1+eps)/δ): an edge's length multiplies by at least (1+eps)
// every time it carries cap_e total flow, and final lengths are
// < (1+eps)/cap_e, so the accumulated flow divided by scale is feasible. A
// solve whose normalized OPT is β takes about β·scale phases.
func gkConstants(eps float64, m int) (delta, scale float64) {
	delta = (1 + eps) * math.Pow((1+eps)*float64(m), -1/eps)
	return delta, math.Log((1+eps)/delta) / math.Log(1+eps)
}

// minRouted returns the minimum routed/demand ratio over all commodities.
func minRouted(pr *problem, routed []float64) float64 {
	lambda := math.Inf(1)
	for _, c := range pr.comms {
		if v := routed[c.id] / c.demand; v < lambda {
			lambda = v
		}
	}
	return lambda
}

// probeScale routes every demand once along unit-hop shortest paths and
// returns 1/(max edge load): a constant-factor estimate of the optimal
// concurrent throughput used only for demand normalization, never for
// results. It borrows the solve arena's workspace and per-edge scratch:
// ar.req doubles as the load accumulator and is handed back zeroed (on
// success; an aborted probe leaves it dirty, which is safe because bind
// re-zeroes it before the next solve), ar.length holds the unit lengths —
// the caller reinitializes it to the FPTAS length function right after the
// probe — and ar.active stages each source's target list.
//
// The context is checked once per source so cancellation stays responsive
// on large instances, and every pass is counted in res.Dijkstras: the probe
// is real solver work and the accounting must say so.
func (p *problem) probeScale(ctx context.Context, ar *arena, res *Result) (float64, error) {
	unit := ar.length
	for i := range unit {
		unit[i] = 1
	}
	load := ar.req
	for si, src := range p.srcs {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		p.sourcePass(ar, si, unit)
		res.Dijkstras++
		dist, prev := ar.ws.Dist, ar.ws.Prev
		for _, c := range p.commsOf(si) {
			if math.IsInf(dist[c.dst], 1) {
				continue // surfaced as an error during the main run
			}
			for v := c.dst; v != src; {
				e := prev[v]
				load[e] += c.demand
				v = p.g.Edge(int(e)).Other(v)
			}
		}
	}
	maxLoad := 0.0
	for e := range load {
		if r := load[e] / p.cap[e]; r > maxLoad {
			maxLoad = r
		}
		load[e] = 0
	}
	if maxLoad == 0 { //flatlint:ignore floatcmp exactly 0 iff no edge carries any flow; guards the division below
		return 1, nil
	}
	return 1 / maxLoad, nil
}

// MaxConcurrentFlowExact solves the instance exactly with the edge-based LP
// formulation. Intended for small instances (the variable count is
// 2·edges·commodities + 1); tests use it to validate MaxConcurrentFlow.
func MaxConcurrentFlowExact(nw *topo.Network, commodities []Commodity) (float64, error) {
	pr := &problem{}
	if err := aggregate(nw, commodities, pr); err != nil {
		return 0, err
	}
	if pr.numComm == 0 {
		return math.Inf(1), nil
	}
	n := pr.g.N()
	m := pr.g.M()
	// Variables: f[j][a] for commodity j and directed arc a (arc 2e is
	// A->B of edge e, arc 2e+1 is B->A), then lambda last.
	numVars := pr.numComm*2*m + 1
	lambdaVar := numVars - 1
	fvar := func(j, arc int) int { return j*2*m + arc }

	prob := lp.NewProblem(numVars)
	prob.Maximize()
	prob.SetObjectiveCoef(lambdaVar, 1)

	type cinfo struct {
		src, dst int32
		demand   float64
	}
	comms := make([]cinfo, pr.numComm)
	for si, src := range pr.srcs {
		for _, c := range pr.commsOf(si) {
			comms[c.id] = cinfo{src: src, dst: c.dst, demand: c.demand}
		}
	}

	// Flow conservation: for every commodity j and node v:
	// out(v) - in(v) - lambda*demand_j*(+1 at src, -1 at dst) = 0.
	for j := 0; j < pr.numComm; j++ {
		for v := 0; v < n; v++ {
			coefs := make(map[int]float64)
			for _, h := range pr.g.Neighbors(v) {
				e := int(h.Edge)
				if int32(v) == pr.g.Edge(e).A {
					coefs[fvar(j, 2*e)]++   // out A->B
					coefs[fvar(j, 2*e+1)]-- // in  B->A
				} else {
					coefs[fvar(j, 2*e+1)]++
					coefs[fvar(j, 2*e)]--
				}
			}
			switch int32(v) {
			case comms[j].src:
				coefs[lambdaVar] = -comms[j].demand
			case comms[j].dst:
				coefs[lambdaVar] = comms[j].demand
			}
			prob.AddConstraint(coefs, lp.EQ, 0)
		}
	}
	// Capacity: both directions of an edge, summed over commodities.
	for e := 0; e < m; e++ {
		coefs := make(map[int]float64)
		for j := 0; j < pr.numComm; j++ {
			coefs[fvar(j, 2*e)]++
			coefs[fvar(j, 2*e+1)]++
		}
		prob.AddConstraint(coefs, lp.LE, pr.cap[e])
	}

	sol, err := prob.Solve()
	if err != nil {
		return 0, err
	}
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("mcf: exact LP status %s", sol.Status)
	}
	return sol.X[lambdaVar], nil
}
