package experiments

import (
	"context"
	"fmt"

	"flattree/internal/core"
	"flattree/internal/metrics"
	"flattree/internal/parallel"
	"flattree/internal/topo"
)

// fig6Header is Figure 6's full header.
var fig6Header = []string{"k", "flat-tree", "fat-tree", "random-graph", "two-stage-rg"}

// fig6Nets orders a suite's networks to match fig6Header's data columns.
func fig6Nets(s *suite) []*topo.Network {
	return []*topo.Network{s.flat.Net(), s.fat.Net, s.rg.Net, s.twoStage.Net}
}

// fig6Cell computes one (k, column) cell: the intra-pod average path length
// of the suite's ci-th network.
func fig6Cell(s *suite, ci int) (string, error) {
	apl, err := metrics.IntraPodAveragePathLength(fig6Nets(s)[ci])
	if err != nil {
		return "", fmt.Errorf("fig6 k=%d net=%d: %w", s.k, ci, err)
	}
	return f3(apl), nil
}

// Fig6 regenerates Figure 6: average path length of server pairs within the
// same pod, comparing flat-tree in local-random mode against fat-tree,
// the global random graph, and the two-stage random graph.
func Fig6(ctx context.Context, cfg Config) (*Table, error) { return fig6(ctx, cfg, nil) }

// fig6 computes the data columns cols of Figure 6 (nil = all). The per-k
// suite builds and the per-topology BFS sweeps both fan out through the
// worker pool.
func fig6(ctx context.Context, cfg Config, cols []int) (*Table, error) {
	cols, header := selectColumns(fig6Header, cols)
	ks, n := cfg.Ks(), len(cols)
	suites, err := buildSuites(ctx, cfg, core.ModeLocalRandom, true)
	if err != nil {
		return nil, err
	}
	cells, err := parallel.MapCtx(ctx, len(ks)*n, cfg.workers(), func(idx int) (string, error) {
		return fig6Cell(suites[idx/n], cols[idx%n])
	})
	if err != nil {
		return nil, err
	}
	return sweepTable("Figure 6: average path length of server pairs in each pod",
		header, ks, func(ki, i int) string { return cells[ki*n+i] }), nil
}
