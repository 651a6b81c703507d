package mcf

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"flattree/internal/topo"
)

// Solver runs repeated max-concurrent-flow solves while keeping the
// aggregated problem, the solve arena, and the final FPTAS edge-length
// function alive between calls. Consecutive instances warm-start from the
// previous solve in two ways: the previous λ replaces the shortest-path
// probe as the demand normalizer (the Garg-Könemann phase count scales with
// OPT-after-normalization, and the probe over-estimates OPT by its
// path-stretch factor, so the tighter normalizer cuts phases
// proportionally), and the final edge-length function, rescaled back into
// the valid δ band, replaces the flat δ/cap start.
//
// The warm gate admits two instance relations:
//
//   - Identical: same switch coordinate set and same commodity multiset —
//     the failure/repair/dark-window variants experiment drivers produce.
//     The previous λ transfers directly.
//   - Related: anything where at least warmOverlapMin of the demand rides
//     commodities with an endpoint coordinate the previous instance's
//     commodities touched — re-drawn traffic permutations on the same
//     fabric, and adjacent-k instances of the same topology family (edges
//     map across instance sizes by canonical (layer, pod, index) switch
//     coordinates, so a fig7/fig8 column chain warm-starts down the k
//     axis). The previous λ
//     is rescaled by the aggregate-demand ratio before normalizing, which
//     tracks OPT for same-fabric redraws exactly and within the capacity
//     growth factor across k. A start normalized too low costs only the
//     few phases the solve needs to prove it and renormalize upward (the
//     ratchet in solveState.fptas), never correctness, and a pathological
//     overshoot is caught by a cold retry (see solveState.solve).
//
// Unrelated instances (endpoint overlap below warmOverlapMin, e.g. a
// different traffic zone on the same fabric) and ε changes run cold: a
// zone's λ can be orders of magnitude off the other zone's OPT, and δ and
// the feasibility scale depend on ε. A star-shaped instance is solved exactly
// by max-flow (solveState.solveStar) and leaves no length function behind,
// so it counts as a cold solve with no reject reason and resets the chain:
// the next FPTAS solve runs cold as a first solve.
//
// The warm start never weakens the contract: the seeded lengths are
// rescaled back into the valid δ band (see warmState.seed), the returned
// Lambda is feasible, and UpperBound/DualGap remain true certificates
// recomputed from scratch each phase. Warm-started Lambda can differ from a
// cold solve's within the ε tolerance — never beyond it — so chains of
// warm-started solves are deterministic but not bit-identical to cold
// chains.
//
// A Solver is not safe for concurrent use. For deterministic experiment
// tables, own one Solver per independent work item (so the chain of solves
// it sees is a pure function of the item, not of goroutine scheduling).
type Solver struct {
	st           *solveState
	warm         warmState
	hits, misses int
}

// NewSolver returns an empty Solver whose first Solve runs cold.
func NewSolver() *Solver { return &Solver{st: getState()} }

// Solve runs one FPTAS solve, warm-starting from the previous successful
// Solve on this Solver when the gate allows it (see Result.WarmStarted and
// Result.WarmReject). Semantics otherwise match MaxConcurrentFlow exactly.
func (s *Solver) Solve(ctx context.Context, nw *topo.Network, commodities []Commodity, opt Options) (Result, error) {
	res, err := s.st.solve(ctx, nw, commodities, opt, &s.warm)
	if err != nil {
		return res, err
	}
	if res.WarmStarted {
		s.hits++
		warmCounters[statHit].Add(1)
	} else {
		s.misses++
		warmCounters[statMiss].Add(1)
		if i, ok := rejectStat[res.WarmReject]; ok {
			warmCounters[i].Add(1)
		}
	}
	res.WarmHits, res.WarmMisses = s.hits, s.misses
	return res, nil
}

// Reset drops the warm state and the hit/miss counters so the next Solve
// runs cold; pooled scratch is kept. Call it between unrelated instance
// chains when reusing one Solver for both — in particular when the relaxed
// gate would otherwise bleed one chain's λ into another (e.g. a zone solve
// followed by a joint solve over a superset of its commodities).
func (s *Solver) Reset() {
	s.warm.valid = false
	s.hits, s.misses = 0, 0
}

var solverPool sync.Pool

// GetSolver pops a pooled Solver (or builds one). The returned Solver is
// always Reset: pooled reuse must never leak one work item's warm state
// into another, which would make results depend on goroutine scheduling.
func GetSolver() *Solver {
	s, ok := solverPool.Get().(*Solver)
	if !ok {
		return NewSolver()
	}
	s.Reset()
	return s
}

// Release returns the Solver to the pool. The caller must not use it
// afterwards.
func (s *Solver) Release() { solverPool.Put(s) }

// Result.WarmReject values: why a Solver solve ran cold.
const (
	// WarmRejectFirstSolve: no previous successful solve to start from.
	WarmRejectFirstSolve = "first-solve"
	// WarmRejectEpsilon: ε differs from the captured solve's (δ and the
	// feasibility scale depend on it).
	WarmRejectEpsilon = "epsilon"
	// WarmRejectOverlap: the demand-weighted endpoint-coordinate overlap
	// with the captured commodities is below warmOverlapMin.
	WarmRejectOverlap = "overlap"
	// WarmRejectColdRetry: a warm attempt overshot its normalizer and was
	// redone cold (see solveState.solve).
	WarmRejectColdRetry = "cold-retry"
)

// WarmStats aggregates warm-gate outcomes across every Solver.Solve in the
// process since the last ResetWarmStats. Sweeps read it to print a warm
// rate without threading counters through their drivers; totals are
// deterministic for a fixed work set (per-item chains are
// scheduling-independent, and addition commutes).
type WarmStats struct {
	Hits, Misses int64
	// Miss breakdown by gate-rejection reason.
	FirstSolve, Epsilon, Overlap, ColdRetry int64
}

const (
	statHit = iota
	statMiss
	statFirst
	statEps
	statOverlap
	statRetry
	statCount
)

var warmCounters [statCount]atomic.Int64

var rejectStat = map[string]int{
	WarmRejectFirstSolve: statFirst,
	WarmRejectEpsilon:    statEps,
	WarmRejectOverlap:    statOverlap,
	WarmRejectColdRetry:  statRetry,
}

// ReadWarmStats returns the process-wide warm-gate counters.
func ReadWarmStats() WarmStats {
	return WarmStats{
		Hits:       warmCounters[statHit].Load(),
		Misses:     warmCounters[statMiss].Load(),
		FirstSolve: warmCounters[statFirst].Load(),
		Epsilon:    warmCounters[statEps].Load(),
		Overlap:    warmCounters[statOverlap].Load(),
		ColdRetry:  warmCounters[statRetry].Load(),
	}
}

// ResetWarmStats zeroes the process-wide warm-gate counters.
func ResetWarmStats() {
	for i := range warmCounters {
		warmCounters[i].Store(0)
	}
}

// coordOf packs a node's canonical coordinates — (layer, pod index, index
// within the (layer, pod) group) — into one comparable key. Unlike the raw
// network node id, the coordinate survives renumbering: the same physical
// switch has the same coordinate after a switch failure rebuilds the
// network, and across instance sizes of the same topology family (a
// fat-tree(6) contains every (layer, pod, index) position a fat-tree(4)
// has). Core switches carry Pod == -1; the +1 keeps the packed field
// non-negative.
func coordOf(n topo.Node) int64 {
	return int64(n.Kind)<<60 | int64(n.Pod+1)<<30 | int64(n.Index)
}

// edgeKey names one edge in coordinate terms: the canonical (smaller,
// larger) endpoint coordinate pair, plus an occurrence index to tell
// parallel edges between the same switch pair apart. Both solves enumerate
// their edges in network link order, so the k-th parallel edge of a pair
// maps to the k-th parallel edge of the same pair in the other instance.
type edgeKey struct {
	a, b int64
	occ  int32
}

// warmOverlapMin is the demand-weighted endpoint-coordinate overlap below
// which the relaxed gate refuses to transfer λ. Chains the rescale is built
// for sit far above it (re-drawn permutations on one fabric ≈ 1; adjacent-k
// fat-tree columns ≈ (k/k')³ ≥ 0.3 for one k-step, even when one side of
// the traffic is a single seeded hot spot); disjoint traffic zones on a
// shared fabric sit at 0.
const warmOverlapMin = 0.25

// warmState carries the final FPTAS edge-length function of one solve to
// the next. Lengths are keyed by coordinate edge identity (edgeKey), so
// both failure/repair deltas and adjacent-k instances map cleanly:
// surviving edges inherit their previous length ratio, edges only the new
// instance has seed at the ratio floor 1, and edges it lacks are simply
// never looked up.
type warmState struct {
	valid  bool
	eps    float64
	lambda float64           // previous solve's final Lambda (original demand units)
	demand float64           // previous solve's aggregate demand, pre-normalization
	coord  []int64           // switch index -> coordinate of the captured problem
	lc     []float64         // final length_e · cap_e per captured edge
	minLC  float64           // min over lc; ratios are measured relative to it
	idx    map[edgeKey]int32 // edge identity -> captured edge index
	occ    map[edgeKey]int32 // scratch: per-pair occurrence counter (occ field 0)
	endSet map[int64]bool    // captured commodity endpoint (src and dst) coordinates

	// Captured commodity fingerprint, in the problem's canonical aggregated
	// order: (src, dst) coordinate pairs and the original
	// (pre-normalization) demands. Snapshotted before demand scaling each
	// solve (next*) and promoted on success, because after scaling the
	// in-place demands are in the previous normalizer's units and no longer
	// comparable across solves.
	commS, commT []int64
	commDem      []float64
	nextS, nextT []int64
	nextDem      []float64
}

// edgeCoords returns the canonical endpoint-coordinate pair of problem
// edge e.
func edgeCoords(pr *problem, e int) (int64, int64) {
	ed := pr.g.Edge(e)
	a, b := pr.coord[ed.A], pr.coord[ed.B]
	if a > b {
		a, b = b, a
	}
	return a, b
}

// warmMode is the gate's verdict on one instance pair.
type warmMode int

const (
	warmNone      warmMode = iota // run cold
	warmIdentical                 // same coordinates and commodities: λ transfers directly
	warmRescaled                  // related instance: λ rescales by the aggregate-demand ratio
)

// gate classifies how the captured state may seed a solve of pr at eps,
// returning the mode and — when cold — the Result.WarmReject reason.
func (w *warmState) gate(pr *problem, eps float64) (warmMode, string) {
	if !w.valid {
		return warmNone, WarmRejectFirstSolve
	}
	//flatlint:ignore floatcmp warm reuse requires the identical ε the state was captured under
	if w.eps != eps {
		return warmNone, WarmRejectEpsilon
	}
	if slices.Equal(w.coord, pr.coord) && w.commsMatch(pr) {
		return warmIdentical, ""
	}
	if w.overlap(pr) >= warmOverlapMin {
		return warmRescaled, ""
	}
	return warmNone, WarmRejectOverlap
}

// commsMatch reports whether pr's commodities equal the captured
// fingerprint. Both sides are in the problem's canonical aggregated order
// (sources ascending, destinations ascending within a source, duplicates
// merged), so identical commodity multisets always compare equal
// element-wise regardless of the caller's input order.
func (w *warmState) commsMatch(pr *problem) bool {
	if len(w.commS) != pr.numComm {
		return false
	}
	i := 0
	for si, src := range pr.srcs {
		s := pr.coord[src]
		for _, c := range pr.commsOf(si) {
			if w.commS[i] != s || w.commT[i] != pr.coord[c.dst] {
				return false
			}
			//flatlint:ignore floatcmp demands must match exactly for the captured λ to transfer unrescaled
			if w.commDem[i] != c.demand {
				return false
			}
			i++
		}
	}
	return true
}

// overlap returns the fraction of pr's aggregate demand riding commodities
// with at least one endpoint coordinate the captured commodities touched.
// It is the gate's relatedness measure: cheap (one pass, no pairwise
// matching), demand-weighted so a hot spot dominates the verdict the way it
// dominates OPT, and exactly 0 for disjoint traffic zones. Either endpoint
// counts because broadcast/incast patterns concentrate one side on a single
// seeded hot spot whose coordinate moves between instances while the fanned-
// out side blankets the fabric — the side that carries the structure is the
// one that should vote.
func (w *warmState) overlap(pr *problem) float64 {
	total, hit := 0.0, 0.0
	for si, src := range pr.srcs {
		s := w.endSet[pr.coord[src]]
		for _, c := range pr.commsOf(si) {
			total += c.demand
			if s || w.endSet[pr.coord[c.dst]] {
				hit += c.demand
			}
		}
	}
	if total <= 0 {
		return 0
	}
	return hit / total
}

// snapshot records pr's commodity fingerprint before demand normalization
// mutates the demands in place. capture promotes it on success; a failed
// solve leaves the previous fingerprint in place alongside valid=false.
func (w *warmState) snapshot(pr *problem) {
	w.nextS, w.nextT, w.nextDem = w.nextS[:0], w.nextT[:0], w.nextDem[:0]
	for si, src := range pr.srcs {
		s := pr.coord[src]
		for _, c := range pr.commsOf(si) {
			w.nextS = append(w.nextS, s)
			w.nextT = append(w.nextT, pr.coord[c.dst])
			w.nextDem = append(w.nextDem, c.demand)
		}
	}
}

// capture records the final length function, λ, and commodity fingerprint
// of a successful solve on pr.
func (w *warmState) capture(pr *problem, length []float64, eps, lambda float64) {
	m := pr.g.M()
	w.coord = append(w.coord[:0], pr.coord...)
	w.lc = resized(w.lc, m)
	if w.idx == nil {
		w.idx = make(map[edgeKey]int32, m)
		w.occ = make(map[edgeKey]int32, m)
		w.endSet = make(map[int64]bool)
	} else {
		clear(w.idx)
	}
	clear(w.occ)
	w.minLC = math.Inf(1)
	for e := 0; e < m; e++ {
		a, b := edgeCoords(pr, e)
		cnt := edgeKey{a: a, b: b}
		w.idx[edgeKey{a: a, b: b, occ: w.occ[cnt]}] = int32(e)
		w.occ[cnt]++
		w.lc[e] = length[e] * pr.cap[e]
		if w.lc[e] < w.minLC {
			w.minLC = w.lc[e]
		}
	}
	w.commS, w.nextS = w.nextS, w.commS
	w.commT, w.nextT = w.nextT, w.commT
	w.commDem, w.nextDem = w.nextDem, w.commDem
	clear(w.endSet)
	w.demand = 0
	for i, s := range w.commS {
		w.endSet[s] = true
		w.endSet[w.commT[i]] = true
		w.demand += w.commDem[i]
	}
	w.eps = eps
	w.lambda = lambda
	w.valid = true
}

// seed initializes length from the captured state and returns the resulting
// D(l) = Σ length_e·cap_e. Each edge starts at δ/cap_e times its previous
// length·cap ratio (relative to the previous minimum), clamped into
// [1, ((1+ε)·m)^¼]; edges with no captured counterpart (a repaired link, or
// a position the previous, smaller-k instance did not have) start at the
// floor. δ — and with it the clamp floor δ/cap_e — is always re-derived
// from this instance's m and this solve's demand normalizer, so the
// understatement bound below holds unchanged when the normalizer is the
// rescaled λ of a related instance rather than the identical one's.
//
// Why this is sound: the FPTAS's feasibility certificate divides the
// accumulated flow by log_{1+ε}((1+ε)/δ), which is valid for any start
// lengths ≥ δ/cap_e — raising an edge's start length only shrinks the
// flow it can absorb before the stop condition, never the certificate. The
// clamp at R = ((1+ε)·m)^¼ = ((1+ε)/δ)^(ε/4) bounds the understatement:
// the lost headroom log_{1+ε}(R) is an ε/4 fraction of the full budget, so
// a warm-started λ sits within ~ε/4 of its cold value, one-sidedly low
// (measured on BenchmarkSolverSequence's workload: ~3% at ε=0.1). The
// dual bound is recomputed from the actual lengths each phase (weak
// duality holds for any positive length function), so DualGap stays
// truthful.
func (w *warmState) seed(pr *problem, length []float64, delta, eps float64) float64 {
	m := pr.g.M()
	rmax := math.Pow((1+eps)*float64(m), 0.25)
	clear(w.occ)
	sumLC := 0.0
	for e := 0; e < m; e++ {
		a, b := edgeCoords(pr, e)
		cnt := edgeKey{a: a, b: b}
		ratio := 1.0
		if j, ok := w.idx[edgeKey{a: a, b: b, occ: w.occ[cnt]}]; ok {
			ratio = w.lc[j] / w.minLC
			if ratio < 1 {
				ratio = 1
			} else if ratio > rmax {
				ratio = rmax
			}
		}
		w.occ[cnt]++
		length[e] = delta / pr.cap[e] * ratio
		sumLC += length[e] * pr.cap[e]
	}
	return sumLC
}
