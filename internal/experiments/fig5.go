package experiments

import (
	"context"
	"fmt"

	"flattree/internal/core"
	"flattree/internal/fattree"
	"flattree/internal/jellyfish"
	"flattree/internal/metrics"
	"flattree/internal/parallel"
	"flattree/internal/topo"
)

// MNSetting is one (m, n) converter-count choice, expressed in eighths of k
// as the paper's Figure 5 legend does (m = Mk8·k/8, n = Nk8·k/8, rounded).
type MNSetting struct {
	Mk8, Nk8 int
}

// Label renders the legend label, e.g. "flat-tree(m=k/8,n=2k/8)".
func (s MNSetting) Label() string {
	frac := func(x int) string {
		if x == 1 {
			return "k/8"
		}
		return fmt.Sprintf("%dk/8", x)
	}
	return fmt.Sprintf("flat-tree(m=%s,n=%s)", frac(s.Mk8), frac(s.Nk8))
}

// Resolve returns the concrete (m, n) for a given k (rounded to nearest,
// like core.DefaultMN).
func (s MNSetting) Resolve(k int) (m, n int) {
	round := func(num, den int) int { return (2*num + den) / (2 * den) }
	return round(s.Mk8*k, 8), round(s.Nk8*k, 8)
}

// Fig5Settings are the five (m, n) combinations in Figure 5's legend.
var Fig5Settings = []MNSetting{
	{1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 2},
}

// fig5Header is Figure 5's full header, the key column plus one data column
// per topology and (m, n) setting.
var fig5Header = func() []string {
	h := []string{"k", "fat-tree", "random-graph"}
	for _, s := range Fig5Settings {
		h = append(h, s.Label())
	}
	return h
}()

// fig5Cell computes one (k, column) cell of Figure 5 — a topology build
// plus a path-length sweep. It is a pure function of (cfg.Seed, k, ci), so
// the cell prints the same bytes whether it runs inside a full table
// fan-out or alone.
func fig5Cell(cfg Config, k, ci int) (string, error) {
	var nw *topo.Network
	switch ci {
	case 0:
		fat, err := fattree.New(k)
		if err != nil {
			return "", err
		}
		nw = fat.Net
	case 1:
		rg, err := jellyfish.New(k, cfg.Seed)
		if err != nil {
			return "", err
		}
		nw = rg.Net
	default:
		s := Fig5Settings[ci-2]
		m, n := s.Resolve(k)
		if m+n > k/2 {
			return "-", nil // infeasible for this k
		}
		ft, err := core.BuildIn(core.Params{K: k, M: m, N: n}, core.ModeGlobalRandom)
		if err != nil {
			return "", err
		}
		nw = ft.Net()
	}
	apl, err := metrics.AveragePathLength(nw)
	if err != nil {
		return "", fmt.Errorf("fig5 k=%d col=%d: %w", k, ci, err)
	}
	return f3(apl), nil
}

// Fig5 regenerates Figure 5: network-wide average path length of server
// pairs versus k, for fat-tree, random graph, and flat-tree in
// global-random mode under each (m, n) setting.
func Fig5(ctx context.Context, cfg Config) (*Table, error) { return fig5(ctx, cfg, nil) }

// fig5 computes the data columns cols of Figure 5 (nil = all). Every
// (k, column) cell runs concurrently through the worker pool.
func fig5(ctx context.Context, cfg Config, cols []int) (*Table, error) {
	cols, header := selectColumns(fig5Header, cols)
	ks, n := cfg.Ks(), len(cols)
	cells, err := parallel.MapCtx(ctx, len(ks)*n, cfg.workers(), func(idx int) (string, error) {
		return fig5Cell(cfg, ks[idx/n], cols[idx%n])
	})
	if err != nil {
		return nil, err
	}
	return sweepTable("Figure 5: average path length of server pairs in the entire network",
		header, ks, func(ki, i int) string { return cells[ki*n+i] }), nil
}

// ProfileResult is the outcome of the §2.4 profiling procedure for one k.
type ProfileResult struct {
	K          int
	BestM      int
	BestN      int
	BestAPL    float64
	DefaultAPL float64 // APL at the paper's default (m, n) = (k/8, 2k/8)
}

// Profile runs the §2.4 profiling scheme: sweep (m, n) at k/8 granularity
// under the preferred wiring pattern and report the argmin average path
// length. The paper finds (k/8, 2k/8). The settings evaluate concurrently
// (cfg.Parallelism workers); the argmin scan runs over the merged results
// in sweep order, so ties resolve identically at every worker count.
func Profile(ctx context.Context, cfg Config, k int) (*Table, ProfileResult, error) {
	t := &Table{
		Title:  fmt.Sprintf("Profiling m,n for k=%d (§2.4): APL per setting", k),
		Header: []string{"m", "n", "apl"},
	}
	res := ProfileResult{K: k, BestAPL: -1}
	round := func(num, den int) int { return (2*num + den) / (2 * den) }
	dm, dn := core.DefaultMN(k)
	type setting struct{ m, n int }
	var settings []setting
	for mi := 1; mi <= 4; mi++ {
		for ni := 1; ni <= 4; ni++ {
			m, n := round(mi*k, 8), round(ni*k, 8)
			if m+n > k/2 || m < 1 || n < 1 {
				continue
			}
			settings = append(settings, setting{m, n})
		}
	}
	apls, err := parallel.MapCtx(ctx, len(settings), cfg.workers(), func(i int) (float64, error) {
		ft, err := core.BuildIn(core.Params{K: k, M: settings[i].m, N: settings[i].n}, core.ModeGlobalRandom)
		if err != nil {
			return 0, err
		}
		return metrics.AveragePathLength(ft.Net())
	})
	if err != nil {
		return nil, res, err
	}
	for i, s := range settings {
		apl := apls[i]
		t.AddRow(fmt.Sprint(s.m), fmt.Sprint(s.n), f3(apl))
		if res.BestAPL < 0 || apl < res.BestAPL {
			res.BestM, res.BestN, res.BestAPL = s.m, s.n, apl
		}
		if s.m == dm && s.n == dn {
			res.DefaultAPL = apl
		}
	}
	return t, res, nil
}
