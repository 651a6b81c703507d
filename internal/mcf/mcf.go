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
// exactly by parametric max-flow (star.go).
//
// The oracle's cost is one shortest-path pass per source per iteration, so
// the sources are chosen, not inherited. Links are undirected, so commodity
// s→t is the same LP as t→s: aggregation merges the two and roots every
// switch pair at an end in a greedy vertex cover of the demand graph, or at
// the input's sources or destinations when those are fewer. An instance and
// its transpose aggregate to the same problem and solve to the same bits.
// A star — every pair at one hot spot, whichever way its commodities point —
// has one root.
//
// The FPTAS reuses paths the way Fleischer's algorithm does. Each source
// keeps, from the last shortest-path pass that reached them, the path to
// each of its destinations and the distance that pass measured; lengths only
// grow, so that distance is a lower bound on the current one. At every
// iteration but the very first of phase 1, if every stored path of the
// source is still within 1+ε of its lower bound, the source routes on them
// without a pass. A reused path then costs at most 1+ε times a shortest one,
// which turns ε into ε(1+ε) in the Garg-Könemann potential argument: λ keeps
// its (1−O(ε)) guarantee, the feasibility scaling is untouched (it is per
// edge), and the per-phase dual bound, whose α terms are the lower bounds
// read at a source's first iteration of the phase, stays valid but looser.
// The exact final dual sweep restores the tight bound.
package mcf

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"flattree/internal/graph"
	"flattree/internal/topo"
)

// Commodity is a demand between two nodes of the network. Src and Dst may
// be servers (aggregated to their host switches) or switches.
type Commodity struct {
	Src, Dst int
	Demand   float64
}

// Options tunes the approximation. The caller's context is the only thing
// that cuts a solve short: its deadline degrades a FPTAS solve to the best
// feasible λ found so far (flagged Approximate), and its cancellation aborts
// any solve with ctx.Err().
type Options struct {
	// Epsilon is the FPTAS accuracy parameter (default 0.08). Smaller is
	// more accurate and slower; the reported DualGap tells the truth
	// regardless.
	Epsilon float64
	// SkipDualBound disables the FPTAS's once-per-phase dual bound
	// computation and its final dual sweep (UpperBound is then +Inf). The
	// exact path ignores it: its min cut is the bound, at no extra cost.
	SkipDualBound bool
}

// Result reports a solve.
type Result struct {
	// Lambda is a feasible concurrent throughput: every commodity can ship
	// Lambda × its demand simultaneously.
	Lambda float64
	// UpperBound is an LP-dual certificate: no feasible solution exceeds
	// it. +Inf when not computed. A converged FPTAS solve reports the
	// smaller of the best per-phase bound and the exact dual value
	// D(l)/α(l) of its final length function; a deadline-stopped
	// (Approximate) solve has no time for that last sweep and reports the
	// per-phase bound alone, and so does a converged solve whose deadline
	// passes during the sweep (not flagged Approximate: its λ met the ε
	// guarantee). A solve whose deadline passes during the demand-scaling
	// probe has no bound (+Inf). An exact (star) solve reports the ratio of
	// its minimum cut, which Lambda meets up to rounding.
	UpperBound float64
	// Phases counts *completed* phases: full passes over every source in
	// which each commodity shipped one round of its demand — the demand as
	// normalized at that point, which the in-flight renormalization only
	// ever raises, so later phases ship more. A solve cut short by its
	// context deadline or a mid-phase convergence break does not count the
	// partial phase, and the final dual sweep is not a phase. Dijkstras
	// counts every shortest-path pass the solve ran, including the
	// demand-scaling probe's and the final dual sweep's. A pass is rooted at
	// one source of the aggregated instance, whose sources cover the switch
	// pairs and may be fewer than the input's (see the package doc). An
	// iteration that routed on its source's stored paths (Fleischer's reuse,
	// see the package doc) ran no pass and is not counted, so Dijkstras can
	// be well below Phases × sources even though a source may take several
	// iterations per phase. Both are 0 for an exact (star) solve, which runs
	// neither phases nor shortest paths.
	Phases    int
	Dijkstras int
	// Approximate reports that the FPTAS stopped at its context deadline
	// before reaching its ε guarantee. Lambda is still feasible and never
	// below the demand-scaling probe's λ (every demand on one shortest
	// path, scaled by the worst edge) — or 0 when the deadline passed
	// during that probe — and DualGap still tells the truth about how far
	// off it might be; the flag only says the usual (1-ε)-optimality
	// promise no longer applies.
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

// spair is a switch-level (source, destination, demand) triple: an
// unordered pair (lower switch first) as aggregate collects and merges it,
// then the same pair rooted by orient.
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
	srcs    []int32      // the roots, each pair's source (see orient), in ascending order
	srcOff  []int32      // comms offsets per source; len(srcs)+1 entries
	comms   []aggCommodity
	numComm int

	idx   []int32 // scratch: network node -> switch index, -1 for servers
	pairs []spair // scratch: one per cross-switch commodity, then one per switch pair

	// Scratch of the orientation, per switch unless noted: the demand
	// graph's adjacency as a CSR over pair indices (adjOff has N+1 entries),
	// each switch's count of still uncovered pairs, its position in the
	// cover (notRoot outside it) and whether it is an input source (1) or
	// destination (2). The grouping by root reuses deg and rank.
	adjOff []int32
	adj    []int32
	deg    []int32
	rank   []int32
	role   []uint8
}

// notRoot is the cover rank of a switch outside the cover.
const notRoot = math.MaxInt32

// commsOf returns the aggregated commodities of the si-th source.
func (p *problem) commsOf(si int) []aggCommodity {
	return p.comms[p.srcOff[si]:p.srcOff[si+1]]
}

// aggregate maps commodities to switch pairs, merges duplicates and roots
// every pair at one of its ends, refilling pr in place. Same-switch
// commodities are dropped: with uncapacitated server links they are
// satisfiable at any λ and never bind.
//
// Links are undirected, so commodity s→t is the same LP as t→s, and the
// FPTAS pays one shortest-path pass per root per iteration. So the pairs are
// merged unordered — (s, t) with (t, s) and with its duplicates, by a stable
// sort and an adjacent sum, so demands accumulate in input order — and
// rooted on a vertex cover of the demand graph (see orient). Both steps read
// the unordered pair set and the two endpoint sets, which transposition only
// swaps, so an instance and its transpose aggregate to the identical problem.
func aggregate(nw *topo.Network, commodities []Commodity, pr *problem) error {
	if pr.g == nil {
		pr.g = new(graph.Graph)
	}
	pr.node = nw.Switches()
	pr.idx = nw.SwitchGraph(pr.g, pr.idx)
	n := pr.g.N()
	pr.cap = pr.cap[:0]
	for range pr.g.M() {
		pr.cap = append(pr.cap, 1)
	}
	pr.role = slices.Grow(pr.role[:0], n)[:n]
	clear(pr.role)
	// pairs and comms are grown once to their size, not appended into from
	// empty, so a state fresh from the pool allocates each of them once.
	pr.pairs = slices.Grow(pr.pairs[:0], len(commodities))
	for i, c := range commodities {
		if !(c.Demand > 0) || math.IsInf(c.Demand, 1) {
			return fmt.Errorf("mcf: commodity %d: demand %g must be positive and finite", i, c.Demand)
		}
		s, err := nw.EntrySwitch(c.Src)
		if err != nil {
			return fmt.Errorf("mcf: commodity %d: %w", i, err)
		}
		t, err := nw.EntrySwitch(c.Dst)
		if err != nil {
			return fmt.Errorf("mcf: commodity %d: %w", i, err)
		}
		if s == t {
			continue
		}
		si, ti := pr.idx[s], pr.idx[t]
		pr.role[si] |= 1
		pr.role[ti] |= 2
		pr.pairs = append(pr.pairs, spair{s: min(si, ti), t: max(si, ti), demand: c.Demand})
	}
	slices.SortStableFunc(pr.pairs, func(a, b spair) int {
		if a.s != b.s {
			return int(a.s) - int(b.s)
		}
		return int(a.t) - int(b.t)
	})
	merged := 0
	for i, p := range pr.pairs {
		if i > 0 && p.s == pr.pairs[merged-1].s && p.t == pr.pairs[merged-1].t {
			pr.pairs[merged-1].demand += p.demand
			continue
		}
		pr.pairs[merged] = p
		merged++
	}
	pr.pairs = pr.pairs[:merged]
	pr.orient()

	// Group the rooted pairs by root with a counting sort. Walked in
	// (lower, higher) order, a root's pairs come with their other ends
	// ascending — those below it as the higher end, then those above it as
	// the lower — so each group is sorted by destination.
	count := pr.deg
	clear(count)
	for _, p := range pr.pairs {
		count[p.s]++
	}
	pr.srcs, pr.srcOff = pr.srcs[:0], pr.srcOff[:0]
	next := pr.rank // per root: where its next commodity goes
	off := int32(0)
	for v, c := range count {
		if c > 0 {
			pr.srcs = append(pr.srcs, int32(v))
			pr.srcOff = append(pr.srcOff, off)
			next[v] = off
			off += c
		}
	}
	pr.srcOff = append(pr.srcOff, off)
	pr.comms = slices.Grow(pr.comms[:0], merged)[:merged]
	for _, p := range pr.pairs {
		j := next[p.s]
		next[p.s]++
		pr.comms[j] = aggCommodity{dst: p.t, demand: p.demand, id: j}
	}
	pr.numComm = merged
	return nil
}

// orient roots every unordered pair in pr.pairs (stored lower switch first)
// at one of its ends, rewriting it as (root, other). The roots form a greedy
// vertex cover of the demand graph: repeatedly the switch with the most
// still uncovered pairs, the lower index on ties, covers them all. Greedy is
// no optimum, so the cover is taken only when it has no more roots than the
// input's own orientation (its distinct sources) or its transpose (its
// distinct destinations); otherwise the smaller of those two sets is — on a
// tie, the one whose ascending switch list is lexicographically first, a
// property of the set that transposition only relabels. A pair with both
// ends in the cover is rooted at the end the greedy picked first (in a
// fallback set, the lower index). When either set has one switch no cover
// is smaller, and the greedy is skipped. A star is rooted at its center
// either way.
func (pr *problem) orient() {
	n := pr.g.N()
	pr.deg = slices.Grow(pr.deg[:0], n)[:n]
	pr.rank = slices.Grow(pr.rank[:0], n)[:n]
	sources, dests := 0, 0
	first := uint8(0) // the role of the lowest switch in exactly one of the two sets
	for _, r := range pr.role {
		if r&1 != 0 {
			sources++
		}
		if r&2 != 0 {
			dests++
		}
		if first == 0 && (r == 1 || r == 2) {
			first = r
		}
	}
	if roots := pr.greedyCover(min(sources, dests)); roots > min(sources, dests) {
		want := uint8(1)
		if dests < sources || (dests == sources && first == 2) {
			want = 2
		}
		for v, r := range pr.role {
			if r&want != 0 {
				pr.rank[v] = int32(v)
			} else {
				pr.rank[v] = notRoot
			}
		}
	}
	for i, p := range pr.pairs {
		if pr.rank[p.t] < pr.rank[p.s] {
			pr.pairs[i].s, pr.pairs[i].t = p.t, p.s
		}
	}
}

// greedyCover leaves in pr.rank each switch's position in the greedy vertex
// cover of pr.pairs (notRoot outside it) and returns the cover's size. It
// stops early, returning more than limit, once the cover would exceed it.
func (pr *problem) greedyCover(limit int) int {
	if limit <= 1 {
		return limit + 1 // no cover has fewer than one root
	}
	clear(pr.deg)
	for _, p := range pr.pairs {
		pr.deg[p.s]++
		pr.deg[p.t]++
	}
	n := len(pr.deg)
	pr.adjOff = slices.Grow(pr.adjOff[:0], n+1)[:n+1]
	pr.adjOff[0] = 0
	for v, d := range pr.deg {
		pr.adjOff[v+1] = pr.adjOff[v] + d
	}
	pr.adj = slices.Grow(pr.adj[:0], 2*len(pr.pairs))[:2*len(pr.pairs)]
	copy(pr.rank, pr.adjOff[:n]) // fill cursors, reset to notRoot below
	for i, p := range pr.pairs {
		pr.adj[pr.rank[p.s]] = int32(i)
		pr.rank[p.s]++
		pr.adj[pr.rank[p.t]] = int32(i)
		pr.rank[p.t]++
	}
	for v := range pr.rank {
		pr.rank[v] = notRoot
	}

	roots, uncovered := 0, len(pr.pairs)
	for uncovered > 0 {
		if roots == limit {
			return roots + 1
		}
		best := 0
		for v, d := range pr.deg {
			if d > pr.deg[best] {
				best = v
			}
		}
		pr.rank[best] = int32(roots)
		roots++
		uncovered -= int(pr.deg[best])
		for _, i := range pr.adj[pr.adjOff[best]:pr.adjOff[best+1]] {
			if other := pr.pairs[i].s + pr.pairs[i].t - int32(best); pr.rank[other] == notRoot {
				pr.deg[other]--
			}
		}
		pr.deg[best] = 0
	}
	return roots
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
	active  []int32   // the current source's destinations while they have demand left, ascending
	routed  []float64 // per-commodity flow accumulated so far (len numComm)
	flow    []float64 // per-edge flow accumulated so far, in units of cap_e (len M)

	// The stored paths Fleischer's reuse routes on. paths[si] is one CSR
	// per source: the edge ids of each of its commodities' paths, walked
	// from the destination back to the source, in commodity order; pathEnd
	// (indexed by commodity id) ends each path there. lb is the distance
	// the pass that stored the path measured — a lower bound on the current
	// distance, since lengths only grow.
	paths   [][]int32
	pathEnd []int32
	lb      []float64
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
// the solver and must start zero; rem, remID and the stored paths are fully
// written before each read (phase 1 stores every source's paths before any
// reuse reads them), so stale values there are harmless.
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
	if cap(ar.paths) < len(pr.srcs) {
		ar.paths = make([][]int32, len(pr.srcs))
	} else {
		ar.paths = ar.paths[:len(pr.srcs)]
	}
	if cap(ar.pathEnd) < pr.numComm {
		ar.pathEnd = make([]int32, pr.numComm)
	} else {
		ar.pathEnd = ar.pathEnd[:pr.numComm]
	}
	ar.lb = resized(ar.lb, pr.numComm)
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
// demand-scaling probe's and the final dual sweep's) and between max-flow
// rounds: cancellation aborts the solve and returns ctx.Err(). A context
// deadline never fails a FPTAS solve: in the probe it returns λ = 0, in the
// phase loop the best feasible λ found so far (both flagged Approximate),
// and in the final dual sweep the converged λ with its per-phase bound. An
// exact solve has nothing to cut short, and an expired context is an error
// there.
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
	if !(0 < opt.Epsilon && opt.Epsilon < 0.5) {
		return Result{}, fmt.Errorf("mcf: epsilon %g out of (0, 0.5)", opt.Epsilon)
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
	return st.fptas(ctx, opt, math.MaxInt)
}

// fptas runs the Garg-Könemann/Fleischer scheme on the aggregated problem in
// st.pr, whose demands it rescales in place, for at most maxPhases phases (a
// solve passes no cap; a test truncates). opt must carry a valid Epsilon
// (solve fills in the default).
func (st *solveState) fptas(ctx context.Context, opt Options, maxPhases int) (Result, error) {
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
	// The probe's own routing, scaled by its worst edge, is feasible, so its
	// λ is also the floor a deadline-stopped solve reports.
	lambdaProbe, err := pr.probeScale(ctx, ar, &res)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			// Nothing is routed yet, so 0 is the only λ known feasible.
			res.Approximate = true
			return res, nil
		}
		return Result{}, err
	}
	lambdaHat := lambdaProbe
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
	// The context deadline is the solve's budget: past it the phase loop
	// degrades to a valid approximate λ instead of tearing the solve down
	// mid-phase with a hard error. A margin is reserved ahead of the
	// deadline so the caller still has time to use the answer — shrinking
	// with the remaining time so chained solves under one request deadline
	// each still get a positive budget. (The demand-scaling probe above is
	// context-checked but unbudgeted: a deadline shorter than the probe
	// ends the solve at λ = 0.)
	var deadline time.Time
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
		deadline = d.Add(-margin)
	}
	converged := false

phases:
	for phase := 1; phase <= maxPhases; phase++ {
		dualAlpha, dualD := 0.0, 0.0
		for si, src := range pr.srcs {
			comms := pr.commsOf(si)
			ar.active = ar.active[:0]
			for _, c := range comms {
				ar.rem[c.dst] = c.demand
				ar.remID[c.dst] = c.id
				ar.active = append(ar.active, c.dst)
			}
			first := true
			for len(ar.active) > 0 {
				if err := ctx.Err(); err != nil {
					if errors.Is(err, context.DeadlineExceeded) {
						// The deadline passed between two checks, margin
						// and all (a descheduled host): it only degrades.
						break phases
					}
					return Result{}, err
				}
				//flatlint:ignore clockwall checking the context-derived deadline; degrades to best-so-far, never changes a converged result
				if !deadline.IsZero() && time.Now().After(deadline) {
					break phases // deadline reached: degrade to best-so-far λ
				}
				if sumLC >= 1 {
					converged = true
					break phases
				}
				// Fleischer's reuse: an iteration routes on the source's
				// stored paths when each is still within 1+ε of its lower
				// bound (the first iteration of phase 1 has none yet).
				// Otherwise one batched pass serves every remaining commodity
				// of the source and stops once all of them have settled —
				// settled results are bit-identical to a full Dijkstra, so
				// the early stop is pure savings; the radix-heap kernel
				// settles in the 4-ary heap's (dist, id) order at any length
				// spread, here ~1e33 between the δ floor and used edges — and
				// refreshes their paths.
				if (phase == 1 && first) || !ar.pathsHold(pr, si, length, eps) {
					ar.ws.DeltaStepTargets(int(src), length, ar.active)
					res.Dijkstras++
					ar.storePaths(pr, si)
				}
				if first && !opt.SkipDualBound {
					for _, c := range comms {
						dualAlpha += c.demand * ar.lb[c.id]
					}
					dualD = sumLC
				}
				first = false
				// Requested flow per edge if every remaining demand were
				// sent fully along its stored path. Destinations are walked
				// in ascending order, so the floating-point accumulation
				// order — and hence the solve — is deterministic (the
				// map-based predecessor of this loop was not).
				ar.touched = ar.touched[:0]
				for _, dst := range ar.active {
					rem := ar.rem[dst]
					for _, e := range ar.path(pr, si, ar.remID[dst]) {
						if ar.req[e] == 0 { //flatlint:ignore floatcmp req is exactly 0 iff the edge is untouched; demands are strictly positive
							ar.touched = append(ar.touched, e)
						}
						ar.req[e] += rem
					}
				}
				// Largest uniform fraction that respects per-step capacity.
				alpha := 1.0
				for _, e := range ar.touched {
					if a := pr.cap[e] / ar.req[e]; a < alpha {
						alpha = a
					}
				}
				for _, dst := range ar.active {
					f := alpha * ar.rem[dst]
					routed[ar.remID[dst]] += f
					ar.rem[dst] -= f
				}
				if alpha >= 1-1e-15 {
					// Each destination shipped the same fraction α of what
					// it had left, so all of them are done at once.
					ar.active = ar.active[:0]
				}
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
		// Count the phase only now that every source completed it: a deadline
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
	if !converged {
		// A deadline can land before the phase loop has routed every
		// commodity once; the probe's feasible λ is never worse than that.
		res.Lambda = max(res.Lambda, lambdaProbe)
	}

	// Exact final dual. Bigger late phases loosen the per-phase bound above
	// (its alpha terms predate most of a phase of length growth, or are
	// stored lower bounds), so a converged solve measures D(l)/alpha(l)
	// once under its final lengths: one distance-only pass per source,
	// context-checked but unbudgeted like the probe. Deadline-stopped
	// solves skip it — they have no time left — and keep the running bound;
	// so does a converged one whose deadline passes during the sweep: its λ
	// met the ε guarantee, only the bound stays looser.
	if converged && !opt.SkipDualBound {
		d, alpha := 0.0, 0.0
		for e, l := range length {
			d += l * pr.cap[e]
		}
		for si := range pr.srcs {
			if err := ctx.Err(); err != nil {
				if errors.Is(err, context.DeadlineExceeded) {
					return res, nil
				}
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

// pathsHold reports whether every stored path of the si-th source is, under
// length, at most 1+eps times the lower bound stored beside it — and so at
// most 1+eps times its current shortest distance.
func (ar *arena) pathsHold(pr *problem, si int, length []float64, eps float64) bool {
	for j := pr.srcOff[si]; j < pr.srcOff[si+1]; j++ {
		d := 0.0
		for _, e := range ar.path(pr, si, j) {
			d += length[e]
		}
		if d > (1+eps)*ar.lb[j] {
			return false
		}
	}
	return true
}

// path returns the stored path of commodity j, one of the si-th source's.
func (ar *arena) path(pr *problem, si int, j int32) []int32 {
	lo := int32(0)
	if j > pr.srcOff[si] {
		lo = ar.pathEnd[j-1]
	}
	return ar.paths[si][lo:ar.pathEnd[j]]
}

// storePaths stores, for every commodity of the si-th source, its path in
// the workspace's last shortest-path tree and the distance that tree
// measured. Every pass of a source targets all of its destinations — a step
// ships the same fraction α of each one's demand, so they finish together —
// and so rewrites the source's whole CSR, in place in its own buffer.
func (ar *arena) storePaths(pr *problem, si int) {
	src := pr.srcs[si]
	dist, prev := ar.ws.Dist, ar.ws.Prev
	buf := ar.paths[si][:0]
	for j := pr.srcOff[si]; j < pr.srcOff[si+1]; j++ {
		dst := pr.comms[j].dst
		for v := dst; v != src; {
			e := prev[v]
			buf = append(buf, e)
			v = pr.g.Edge(int(e)).Other(v)
		}
		ar.pathEnd[j] = int32(len(buf))
		ar.lb[j] = dist[dst]
	}
	ar.paths[si] = buf
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
// concurrent throughput that normalizes the demands, and a feasible λ — the
// probe's routing scaled by its worst edge — that a deadline-stopped solve
// falls back on. A disconnected commodity is an error here, before any λ
// can be reported for an instance whose optimum is 0.
//
// It borrows the solve arena's workspace and per-edge scratch: ar.req
// doubles as the load accumulator and is handed back zeroed (on success; an
// aborted probe leaves it dirty, which is safe because bind re-zeroes it
// before the next solve), ar.length holds the unit lengths — the caller
// reinitializes it to the FPTAS length function right after the probe —
// and ar.active stages each source's target list.
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
				return 0, fmt.Errorf("mcf: commodity %d->%d disconnected", p.node[src], p.node[c.dst])
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
	// Every aggregated commodity joins two distinct switches, so some edge
	// carries load and maxLoad > 0.
	return 1 / maxLoad, nil
}
