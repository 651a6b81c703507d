package experiments

import (
	"context"
	"errors"
	"fmt"

	"flattree/internal/core"
	"flattree/internal/topo"
)

// PropsReport summarizes §2.3's wiring-pattern properties for one (k,
// pattern): the spread (max-min) of servers per core switch (Property 1)
// and of per-type link counts at cores (Property 2), plus the pattern's
// pod-to-pod repeat period.
type PropsReport struct {
	K            int
	Pattern      core.Pattern
	ServerSpread int
	EdgeSpread   int
	AggSpread    int
	RepeatPeriod int
}

// Props evaluates both wiring patterns across the sweep in global-random
// mode.
func Props(ctx context.Context, cfg Config) (*Table, []PropsReport, error) {
	t := &Table{
		Title: "§2.3 Properties 1-2: per-core uniformity of servers and link types (global-random mode)",
		Header: []string{"k", "pattern", "repeat-period",
			"server-spread", "edge-link-spread", "agg-link-spread"},
	}
	var reports []PropsReport
	for _, k := range cfg.Ks() {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		m, n := core.DefaultMN(k)
		for _, pat := range []core.Pattern{core.Pattern1, core.Pattern2} {
			ft, err := core.BuildIn(core.Params{K: k, M: m, N: n, Pattern: pat}, core.ModeGlobalRandom)
			if errors.Is(err, core.ErrInvalidNetwork) {
				// A pattern whose rotation repeats every pod can
				// disconnect the converted network (e.g. k=4 pattern 2:
				// some cores end up cabled only to servers). That is a
				// finding, not a failure — PatternAuto never picks such a
				// pattern.
				t.AddRow(fmt.Sprint(k), pat.String(),
					fmt.Sprint(core.RepeatPeriod(pat, k, m)), "disconnected", "-", "-")
				continue
			}
			if err != nil {
				return nil, nil, err
			}
			nw := ft.Net()
			// Neighbors of each core by kind, in ft.Cores order, counted
			// from both ends of every link.
			at := make([]int, nw.N()) // node -> 1 + its index in ft.Cores, 0 if not a core
			for i, c := range ft.Cores {
				at[c] = i + 1
			}
			srv := make([]int, len(ft.Cores))
			edg := make([]int, len(ft.Cores))
			agg := make([]int, len(ft.Cores))
			for _, l := range nw.Links {
				for _, end := range [2][2]int{{l.A, l.B}, {l.B, l.A}} {
					i := at[end[0]] - 1
					if i < 0 {
						continue
					}
					switch nw.Nodes[end[1]].Kind {
					case topo.Server:
						srv[i]++
					case topo.EdgeSwitch:
						edg[i]++
					case topo.AggSwitch:
						agg[i]++
					}
				}
			}
			rep := PropsReport{
				K: k, Pattern: pat,
				ServerSpread: spread(srv),
				EdgeSpread:   spread(edg),
				AggSpread:    spread(agg),
				RepeatPeriod: core.RepeatPeriod(pat, k, m),
			}
			reports = append(reports, rep)
			t.AddRow(fmt.Sprint(k), pat.String(), fmt.Sprint(rep.RepeatPeriod),
				fmt.Sprint(rep.ServerSpread), fmt.Sprint(rep.EdgeSpread), fmt.Sprint(rep.AggSpread))
		}
	}
	return t, reports, nil
}

func spread(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	min, max := xs[0], xs[0]
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return max - min
}
