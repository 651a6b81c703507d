package experiments

import (
	"context"
	"fmt"

	"flattree/internal/core"
	"flattree/internal/mcf"
	"flattree/internal/parallel"
	"flattree/internal/topo"
	"flattree/internal/traffic"
)

// throughput runs the paper's throughput methodology on one topology: build
// clusters under the placement policy, emit the pattern's commodities, and
// solve maximum concurrent flow.
func throughput(ctx context.Context, nw *topo.Network, clusterSize int, placement traffic.Placement,
	pattern func([]traffic.Cluster) []mcf.Commodity, seed uint64, epsilon float64) (mcf.Result, error) {
	clusters, err := traffic.MakeClusters(nw, nw.Servers(), traffic.Spec{
		ClusterSize: clusterSize,
		Placement:   placement,
		Seed:        seed,
	})
	if err != nil {
		return mcf.Result{}, err
	}
	return mcf.MaxConcurrentFlow(ctx, nw, pattern(clusters), mcf.Options{Epsilon: epsilon})
}

// BroadcastClusterSize is the paper's hot-spot cluster size (§3.3).
const BroadcastClusterSize = 1000

// AllToAllClusterSize is the paper's all-to-all cluster size (§3.3).
const AllToAllClusterSize = 20

// broadcastPattern and allToAllPattern bind the nominal cluster sizes into
// the commodity generators so all throughput numbers share the paper's
// demand scale.
func broadcastPattern(cl []traffic.Cluster) []mcf.Commodity {
	return traffic.BroadcastCommodities(cl, BroadcastClusterSize)
}

func allToAllPattern(cl []traffic.Cluster) []mcf.Commodity {
	return traffic.AllToAllCommodities(cl, AllToAllClusterSize)
}

// figSolve is one solve's contribution to a throughput column.
type figSolve struct {
	lambda float64
	approx bool
}

// figSpec describes one throughput figure (7 or 8): the topologies, the
// traffic pattern, and the table layout. Its one driver, table, computes any
// set of columns, so a column computed alone runs exactly the code a full
// table run would.
type figSpec struct {
	fig         string
	title       string
	header      []string // column 0 is the "k" key column
	mode        core.Mode
	nets        []topology // data column ci reads nets[ci/len(placements)]
	clusterSize int
	placements  []traffic.Placement
	pattern     func([]traffic.Cluster) []mcf.Commodity
}

// columnTrial is the unit of work a figure fans out over: one (column,
// trial) pair, solved at every k of the sweep. Each solve is a function of
// its own (network, traffic) alone, so a row reads the same whatever sweep it
// is part of.
func (fs figSpec) columnTrial(ctx context.Context, cfg Config, suites []*suite, ci, tr int) ([]figSolve, error) {
	seeds := cfg.trialSeeds()
	numPl := len(fs.placements)
	out := make([]figSolve, len(suites))
	for ki := range suites {
		nw := suites[ki].net(fs.nets[ci/numPl])
		res, err := throughput(ctx, nw, fs.clusterSize, fs.placements[ci%numPl],
			fs.pattern, seeds.Seed(uint64(tr)), cfg.Epsilon)
		if err != nil {
			return nil, fmt.Errorf("%s k=%d net=%d trial=%d: %w", fs.fig, suites[ki].k, ci/numPl, tr, err)
		}
		out[ki] = figSolve{res.Lambda, res.Approximate}
	}
	return out, nil
}

// averageColumn folds one column's per-trial solves into the formatted
// cells, one per k. Trials are summed in index order, so the float digits
// are identical wherever they were computed.
func averageColumn(perTrial [][]figSolve, nk int) []string {
	cells := make([]string, nk)
	for ki := 0; ki < nk; ki++ {
		sum, approx := 0.0, false
		for _, trial := range perTrial {
			sum += trial[ki].lambda
			approx = approx || trial[ki].approx
		}
		cells[ki] = lambdaCell(sum/float64(len(perTrial)), approx)
	}
	return cells
}

// table measures the data columns cols (nil = all) of the figure: it builds,
// per k, only the networks those columns read, then fans the (column, trial)
// work items out over cfg.Parallelism workers and merges them in index
// order — byte-identical for every Parallelism setting and for every column
// set.
func (fs figSpec) table(ctx context.Context, cfg Config, cols []int) (*Table, error) {
	cols, header := selectColumns(fs.header, cols)
	ks := cfg.Ks()
	if len(ks) == 0 {
		return &Table{Title: fs.title, Header: header}, nil
	}
	suites, err := buildSuites(ctx, cfg, fs.mode, columnNets(fs.nets, len(fs.placements), cols))
	if err != nil {
		return nil, err
	}
	trials := cfg.trials()
	lambdas, err := parallel.MapCtx(ctx, len(cols)*trials, cfg.workers(), func(idx int) ([]figSolve, error) {
		return fs.columnTrial(ctx, cfg, suites, cols[idx/trials], idx%trials)
	})
	if err != nil {
		return nil, err
	}
	colCells := make([][]string, len(cols))
	for i := range cols {
		colCells[i] = averageColumn(lambdas[i*trials:(i+1)*trials], len(ks))
	}
	return sweepTable(fs.title, header, ks, func(ki, i int) string { return colCells[i][ki] }), nil
}

// experiment is the figure's registry entry.
func (fs figSpec) experiment() experiment {
	return experiment{name: fs.fig, header: fs.header,
		run: func(ctx context.Context, cfg Config, _ CellSpec, cols []int) (*Table, error) {
			return fs.table(ctx, cfg, cols)
		}}
}

// fig7Spec is Figure 7's layout: broadcast/incast traffic in 1000-server
// clusters for fat-tree, flat-tree (global-random mode), and random graph,
// each with strong locality and no locality.
var fig7Spec = figSpec{
	fig:   "fig7",
	title: "Figure 7: throughput of broadcast/incast traffic in 1000-server clusters",
	header: []string{"k",
		"fat-tree/loc", "fat-tree/noloc",
		"flat-tree/loc", "flat-tree/noloc",
		"random-graph/loc", "random-graph/noloc"},
	mode:        core.ModeGlobalRandom,
	nets:        []topology{fatTree, flatTree, randomGraph},
	clusterSize: BroadcastClusterSize,
	placements:  []traffic.Placement{traffic.Locality, traffic.NoLocality},
	pattern:     broadcastPattern,
}

// fig8Spec is Figure 8's layout: all-to-all traffic in 20-server clusters
// for fat-tree, flat-tree (local-random mode), two-stage random graph, and
// random graph, each with strong and weak locality.
var fig8Spec = figSpec{
	fig:   "fig8",
	title: "Figure 8: throughput of all-to-all traffic in 20-server clusters",
	header: []string{"k",
		"fat-tree/loc", "fat-tree/weak",
		"flat-tree/loc", "flat-tree/weak",
		"two-stage-rg/loc", "two-stage-rg/weak",
		"random-graph/loc", "random-graph/weak"},
	mode:        core.ModeLocalRandom,
	nets:        []topology{fatTree, flatTree, twoStage, randomGraph},
	clusterSize: AllToAllClusterSize,
	placements:  []traffic.Placement{traffic.Locality, traffic.WeakLocality},
	pattern:     allToAllPattern,
}

// Fig7 regenerates Figure 7, averaged over cfg.trials() placement seeds.
func Fig7(ctx context.Context, cfg Config) (*Table, error) {
	return fig7Spec.table(ctx, cfg, nil)
}

// Fig8 regenerates Figure 8, averaged over cfg.trials() placement seeds.
func Fig8(ctx context.Context, cfg Config) (*Table, error) {
	return fig8Spec.table(ctx, cfg, nil)
}
