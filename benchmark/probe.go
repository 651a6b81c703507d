package main

import (
	"time"

	"flattree/internal/core"
	"flattree/internal/graph"
)

// probeSources is how many SSSP/BFS sources one probe round runs.
const probeSources = 256

// probeRounds is how many rounds a probe takes the median of.
const probeRounds = 5

// perCallUS times rounds of probeSources calls and returns the median
// round's mean microseconds per call. Every round runs the same sources,
// so rounds do identical work.
func perCallUS(n int, call func(src int)) float64 {
	per := make([]float64, probeRounds)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < probeSources; i++ {
			call((i * 7919) % n)
		}
		per[r] = float64(time.Since(t0)) / 1e3 / probeSources
	}
	return median(per)
}

// globalRandomGraph is flat-tree(k)'s switch-and-server graph in
// global-random mode.
func globalRandomGraph(k int) (*graph.Graph, error) {
	ft, err := core.Build(core.Params{K: k})
	if err != nil {
		return nil, err
	}
	if err := ft.SetUniformMode(core.ModeGlobalRandom); err != nil {
		return nil, err
	}
	return ft.Net().Graph(), nil
}

// graphProbes time the two SSSP kernels and the BFS the way mcf and metrics
// call them, on fixed graphs, so that a kernel change shows here before it
// shows in mcf.us_per_dijkstra or metrics.apl_ms. They do not depend on the
// workload; every traced pass runs them.
func (e *env) graphProbes() error {
	g, err := globalRandomGraph(e.sz.ProbeSSSPK)
	if err != nil {
		return err
	}
	ws, length := g.NewWorkspace(), g.UnitLengths()
	e.res.layer("graph.sssp_delta_us", perCallUS(g.N(), func(src int) { ws.DeltaStep(src, length) }))
	e.res.layer("graph.sssp_heap_us", perCallUS(g.N(), func(src int) { ws.Dijkstra(src, length) }))

	if g, err = globalRandomGraph(e.sz.ProbeBFSK); err != nil {
		return err
	}
	dist, queue := make([]int32, g.N()), make([]int32, g.N())
	e.res.layer("graph.bfs_us", perCallUS(g.N(), func(src int) { g.BFSInto(src, dist, queue) }))
	return nil
}
