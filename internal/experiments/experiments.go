// Package experiments contains one driver per table/figure of the flat-tree
// paper's evaluation (§3). Each driver regenerates the corresponding data
// series — the same rows the paper plots — over configurable k sweeps, and
// returns them as a Table that cmd/flatsim prints and the root benchmarks
// execute. EXPERIMENTS.md records measured-vs-paper shapes.
//
// Two declarations tie the drivers to their callers. The registry
// (cells.go) lists every experiment once; Cell is the only dispatch over
// it, and a figure's table and its single-column cells are the same driver
// over different column sets. The knob table (knobs.go) lists every
// parameter once — name, default, domain, identity-or-execution — and
// cmd/flatsim's flags, internal/serve's query parser and the content
// address are all derived from it.
//
// The sweeps are embarrassingly parallel: every (k, topology, placement,
// trial) cell is an independent pure computation. Drivers therefore fan
// their cells out through internal/parallel and merge results in index
// order, which makes every table byte-identical for any Config.Parallelism
// setting — `-parallel 1` and `-parallel N` print the same bytes, N just
// gets there sooner.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"flattree/internal/core"
	"flattree/internal/fattree"
	"flattree/internal/jellyfish"
	"flattree/internal/parallel"
	"flattree/internal/twostage"
)

// Config controls an experiment run.
type Config struct {
	// KMin/KMax/KStep define the fat-tree parameter sweep (paper: 4..32
	// step 2).
	KMin, KMax, KStep int
	// Seed drives every randomized construction and placement.
	Seed uint64
	// Epsilon is the MCF approximation accuracy (throughput experiments).
	Epsilon float64
	// HybridK is the network size for the hybrid-mode experiment
	// (paper: 30).
	HybridK int
	// Trials averages randomized experiments (throughput placements,
	// failure injection) over this many seeds; 0 or 1 means a single run.
	Trials int
	// Parallelism caps the worker goroutines each driver fans out over its
	// (k, topology, trial) cells; 0 or negative selects GOMAXPROCS. Table
	// output is byte-identical for every setting — the knob only trades
	// wall-clock time for CPU.
	Parallelism int
	// SolveBudget bounds each individual MCF solve's wall-clock time (see
	// mcf.Options.TimeBudget); zero means unbounded. Cells whose solver
	// stopped early carry a trailing "~" (the solve is a valid lower bound,
	// just not converged to Epsilon). Note a nonzero budget trades the
	// byte-identical-tables guarantee for bounded latency: whether a solve
	// hits the budget depends on machine speed, so "~" markers — and the
	// slightly lower λ of a truncated solve — can differ between runs.
	SolveBudget time.Duration
}

// trials returns the effective number of randomized runs: Trials when
// positive, otherwise 1. Every driver that averages over seeds goes through
// this one accessor, so a given Config means the same number of runs
// everywhere. (Historically throughput averaging defaulted to 1 while
// Faults silently defaulted to 3, so "the same" Config ran different
// experiment shapes.)
func (c Config) trials() int {
	if c.Trials > 0 {
		return c.Trials
	}
	return 1
}

// workers resolves the Parallelism knob to an effective worker count.
func (c Config) workers() int { return parallel.Workers(c.Parallelism) }

// trialSeeds returns the per-trial seed stream for this config. Seeds are
// SplitMix64 hashes of (Seed, trial), so trials are decorrelated even
// across nearby base seeds, and every topology/placement cell of one run
// sees the same trial-seed sequence (paired comparisons, as the paper's
// averaged figures require).
func (c Config) trialSeeds() parallel.SeedStream { return parallel.NewSeedStream(c.Seed) }

// Ks expands the sweep.
func (c Config) Ks() []int {
	var ks []int
	step := c.KStep
	if step <= 0 {
		step = 2
	}
	for k := c.KMin; k <= c.KMax; k += step {
		if k >= 4 && k%2 == 0 {
			ks = append(ks, k)
		}
	}
	return ks
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// WriteTSV writes the table as tab-separated values with a title line.
func (t *Table) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n%s\n", t.Title, strings.Join(t.Header, "\t")); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(r, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table with aligned columns for terminals.
func (t *Table) String() string {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

// lambdaCell formats an averaged throughput; a trailing "~" marks an
// average with at least one contributing solve that stopped at its budget
// (mcf.Result.Approximate) — a valid lower bound, not converged to Epsilon.
func lambdaCell(v float64, approx bool) string {
	if approx {
		return f4(v) + "~"
	}
	return f4(v)
}

// suite bundles the four comparable topologies for one k.
type suite struct {
	k        int
	fat      *fattree.FatTree
	rg       *jellyfish.Jellyfish
	flat     *core.FlatTree // caller sets mode
	twoStage *twostage.TwoStage
}

func buildSuite(k int, seed uint64, mode core.Mode, withTwoStage bool) (*suite, error) {
	s := &suite{k: k}
	var err error
	if s.fat, err = fattree.New(k); err != nil {
		return nil, err
	}
	if s.rg, err = jellyfish.New(k, seed); err != nil {
		return nil, err
	}
	if s.flat, err = core.BuildIn(core.Params{K: k}, mode); err != nil {
		return nil, err
	}
	if withTwoStage {
		_, n := core.DefaultMN(k)
		if s.twoStage, err = twostage.New(k, n, seed); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// buildSuites builds the suite of every k in the sweep, fanned out over the
// worker pool. Each suite is a pure function of (k, cfg.Seed, mode), so a
// run over fewer columns rebuilds byte-identical networks.
func buildSuites(ctx context.Context, cfg Config, mode core.Mode, withTwoStage bool) ([]*suite, error) {
	ks := cfg.Ks()
	return parallel.MapCtx(ctx, len(ks), cfg.workers(), func(i int) (*suite, error) {
		return buildSuite(ks[i], cfg.Seed, mode, withTwoStage)
	})
}
