package graph

import (
	"math"
	"math/bits"
)

// Radix-heap SSSP: the monotone bucket queue behind DeltaStep and
// DeltaStepTargets (the names predate the kernel and are kept because the
// solver and the benchmark probe call them). It replaces the 4-ary heap's
// O(log n) pops and decrease-key sift-ups with O(1) bucket moves and makes
// no assumption about the length function beyond non-negativity: the FPTAS
// presents spreads of ~1e33 (lengths start near 3e-34 and grow to ~1), and
// zero lengths are handled natively.
//
// Non-negative float64s order like their IEEE-754 bit patterns, so a queued
// node whose tentative distance has pattern k lives in bucket
// bits.Len64(k ^ last), where last is the pattern of the most recently
// settled distance: bucket 0 holds keys equal to the current minimum,
// bucket i > 0 keys that first differ from it at bit i-1. Dijkstra's
// monotonicity (every new key is dv + l ≥ dv = last) keeps that index well
// defined. When bucket 0 runs dry the lowest occupied bucket — one
// TrailingZeros64 on the occupancy mask — is emptied: its minimum becomes
// last and every member lands in a strictly lower bucket.
//
// Determinism is the load-bearing property. The heap kernel pops in
// (dist, id) order; here every queued node at the minimum distance is in
// bucket 0, which is a node-id bitset popped lowest-id-first, so the settle
// order is the same — including nodes that arrive at the current minimum
// mid-drain through a zero-length edge or through dv + l rounding back to
// dv, whose ids may lie below ones already popped. (A sorted slice would
// need a re-sort per such arrival, and at a 1e33 spread they are the common
// case.) Both kernels then relax each adjacency list in the same order under
// the same `nd < dist` predicate, so the full sequence of Dist/Prev writes —
// and every λ table the FPTAS derives from them — is bit-identical to the
// heap kernel's, early exit included.

// DeltaStep computes shortest distances from src under per-edge lengths
// (which must be non-negative) into w.Dist and w.Prev, exactly like
// Dijkstra — same results bit for bit — via the radix heap.
func (w *Workspace) DeltaStep(src int, length []float64) {
	w.runRadix(int32(src), length, nil)
}

// DeltaStepTargets is DeltaStep with an early exit: the run stops once
// every listed target has settled, which serves every commodity of one
// source in one pass — the FPTAS's batched oracle. Dist/Prev are exact on
// every settled node, in particular every reachable target and every node
// on a shortest path to one, so walking Prev from a target yields the tree
// a full run would; an unreachable target reads +Inf, because the search
// exhausts its component before it can stop. Unsettled nodes hold
// tentative distances that callers must not read. The whole Dist/Prev
// state at the stop point is bit-identical to the heap kernel's with the
// same targets: both settle nodes in (dist, id) order and relax edges in
// adjacency order.
func (w *Workspace) DeltaStepTargets(src int, length []float64, targets []int32) {
	w.runRadix(int32(src), length, targets)
}

func (w *Workspace) runRadix(src int32, length []float64, targets []int32) {
	dist, prev := w.Dist, w.Prev
	targets, remaining := w.prepare(dist, prev, targets)
	dist[src] = 0
	var last uint64 // bit pattern of the current minimum distance
	w.rput(src, 0)
	for {
		if w.zeroN == 0 {
			if w.occ == 0 {
				return
			}
			i := bits.TrailingZeros64(w.occ)
			b := w.bkt[i]
			last = math.Float64bits(dist[b[0]])
			for _, u := range b[1:] {
				if k := math.Float64bits(dist[u]); k < last {
					last = k
				}
			}
			w.bkt[i] = b[:0]
			w.occ &^= 1 << i
			for _, u := range b {
				w.rput(u, int8(bits.Len64(math.Float64bits(dist[u])^last)))
			}
		}
		// Pop bucket 0's lowest id; zeroLo never exceeds its first
		// non-empty word.
		for w.zero[w.zeroLo] == 0 {
			w.zeroLo++
		}
		word := w.zero[w.zeroLo]
		v := int32(w.zeroLo<<6 + bits.TrailingZeros64(word))
		w.zero[w.zeroLo] = word & (word - 1)
		w.zeroN--
		w.bnum[v] = -1
		if targets != nil && w.tmark[v] == w.tepoch {
			remaining--
			if remaining == 0 {
				w.rclear()
				return
			}
		}
		dv := dist[v]
		for _, h := range w.g.adj[v] {
			nd := dv + length[h.Edge]
			if nd < dist[h.Peer] {
				dist[h.Peer] = nd
				prev[h.Peer] = h.Edge
				nb := int8(bits.Len64(math.Float64bits(nd) ^ last))
				if ob := w.bnum[h.Peer]; ob != nb {
					if ob >= 0 {
						w.rremove(h.Peer, ob) // decrease-key
					}
					w.rput(h.Peer, nb)
				}
			}
		}
	}
}

// rput queues v in bucket num. A decreased key never stays in bucket 0
// (keys there equal the minimum already), so v is not in the bitset.
func (w *Workspace) rput(v int32, num int8) {
	w.bnum[v] = num
	if num == 0 {
		word := int(v >> 6)
		w.zero[word] |= 1 << (v & 63)
		w.zeroN++
		if word < w.zeroLo {
			w.zeroLo = word
		}
		return
	}
	w.bpos[v] = int32(len(w.bkt[num]))
	w.bkt[num] = append(w.bkt[num], v)
	w.occ |= 1 << num
}

// rremove swap-removes v from slice bucket num > 0 (order within a pending
// bucket is irrelevant: it is redistributed by key when it becomes lowest).
func (w *Workspace) rremove(v int32, num int8) {
	b := w.bkt[num]
	last := len(b) - 1
	if p := w.bpos[v]; int(p) != last {
		b[p] = b[last]
		w.bpos[b[p]] = p
	}
	w.bkt[num] = b[:last]
	if last == 0 {
		w.occ &^= 1 << num
	}
}

// rclear empties the queue after an early exit so the invariant between
// runs (no bucket occupied, bnum = -1 everywhere) survives, mirroring the
// heap drain.
func (w *Workspace) rclear() {
	for i := w.zeroLo; w.zeroN > 0; i++ {
		for word := w.zero[i]; word != 0; word &= word - 1 {
			w.bnum[i<<6+bits.TrailingZeros64(word)] = -1
			w.zeroN--
		}
		w.zero[i] = 0
	}
	for ; w.occ != 0; w.occ &= w.occ - 1 {
		i := bits.TrailingZeros64(w.occ)
		for _, u := range w.bkt[i] {
			w.bnum[u] = -1
		}
		w.bkt[i] = w.bkt[i][:0]
	}
}
