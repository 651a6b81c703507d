// Command fixture references the fixture module's exported library API, so
// that of all the analyzers only testonly's own fixture (internal/metrics/
// testonly.go) reports a function no product code reaches.
package main

import (
	"flattree/internal/core"
	"flattree/internal/ctrl"
	"flattree/internal/experiments"
	"flattree/internal/faults"
	"flattree/internal/graph"
	"flattree/internal/lp"
	"flattree/internal/mcf"
	"flattree/internal/metrics"
	"flattree/internal/parallel"
	"flattree/internal/routing"
	"flattree/internal/serve"
	"flattree/internal/store"
	"flattree/internal/topo"
)

var api = []any{
	core.Drop, core.Dead, core.Waived,
	ctrl.Fire, ctrl.Watched, ctrl.Pooled, ctrl.Daemon,
	experiments.Stamp, experiments.Table, experiments.Budgeted, experiments.WaivedStamp,
	faults.Validate, faults.Sum, faults.Collect, faults.Feed, faults.Check,
	faults.SortedKeys, faults.Count, faults.Invert, faults.Waived,
	graph.SeededPerm, graph.WaivedInt, graph.Split,
	lp.Eq, lp.Ne, lp.Sentinel, lp.UseHelper,
	mcf.Explode, mcf.Invariant,
	metrics.Unknown, metrics.MissingReason, metrics.Unused, metrics.Close,
	metrics.Median, metrics.Handlers,
	parallel.Spawn,
	routing.Route, routing.Legacy, routing.BuildTables, routing.Injected, routing.Waived,
	serve.Bad, serve.Waived,
	store.Describe,
	topo.Report,
}

func main() { println(len(api)) }
