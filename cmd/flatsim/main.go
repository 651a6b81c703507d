// Command flatsim regenerates the flat-tree paper's evaluation (§3): every
// figure's data series, the (m, n) profiling procedure, and the wiring
// property checks, printed as aligned tables or TSV.
//
// Usage:
//
//	flatsim [flags] fig5|fig6|fig7|fig8|hybrid|profile|props|faults|faultsrecovery|selfheal|soak|latency|stats|export|all
//	flatsim serve [serve flags]
//
// Examples:
//
//	flatsim -kmax 32 fig5            # the paper's full sweep
//	flatsim -kmax 12 -eps 0.1 fig8   # throughput sweep, laptop scale
//	flatsim -hybridk 30 hybrid       # the paper's 30-pod hybrid study
//	flatsim -tsv all > results.tsv
//	flatsim -kmax 8 -trials 5 faultsrecovery   # §5 failure -> recovery table
//	flatsim -kmax 8 -failfrac 0.25 selfheal    # live self-healing trajectory
//	flatsim -kmax 8 -rate 1 -horizon 20 soak   # chaos soak: continuous failures vs self-healing
//	flatsim serve -listen :8447 -store ./flatstore   # experiment service with a persistent cell cache
//
// The subcommands are the registry of internal/experiments (plus the
// CLI-only stats, export and all), and the experiment flags are its knob
// table, experiments.Knobs(): each flag's spelling, default and domain is
// the /v1/cell query parameter's, and both reject the same values with the
// same message.
//
// Long sweeps respond to Ctrl-C / SIGTERM and to -timeout by stopping
// promptly with a partial-result message; already-printed tables remain
// valid.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"flattree/internal/core"
	"flattree/internal/experiments"
	"flattree/internal/fattree"
	"flattree/internal/jellyfish"
	"flattree/internal/topo"
	"flattree/internal/twostage"
)

func main() {
	// The serve subcommand has its own flag surface (service knobs, not
	// experiment parameters), so it dispatches before the experiment
	// FlagSet sees the arguments.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	c, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2) // parseArgs has reported it
	}

	// Ctrl-C / SIGTERM and -timeout cancel the experiment context; drivers
	// stop handing out cells promptly and return the context's error.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if c.req.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.req.Timeout)
		defer cancel()
	}

	// Profiling hooks: full-scale runs (e.g. -kmax 32 fig7) can be
	// profiled without editing code. The profiles cover the experiment
	// itself, not flag parsing.
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			check(f.Close())
		}()
	}
	if c.memProfile != "" {
		defer func() {
			f, err := os.Create(c.memProfile)
			check(err)
			runtime.GC() // report live heap, not transient garbage
			check(pprof.WriteHeapProfile(f))
			check(f.Close())
		}()
	}
	check(c.run(ctx, c.name, os.Stdout))
}

// cli is one parsed flatsim invocation.
type cli struct {
	// req holds every experiment knob; run fills in the experiment.
	req  experiments.Request
	name string // the subcommand

	tsv                    bool
	exportK                int
	exportMode, exportFmt  string
	cpuProfile, memProfile string
}

// knobFlag adapts one experiments.Knob to flag.Value: the flag's spelling,
// help text, default, parse and domain check all come from the knob.
type knobFlag struct {
	knob experiments.Knob
	req  *experiments.Request
}

func (f knobFlag) Set(s string) error { return f.knob.Set(f.req, s) }

func (f knobFlag) String() string {
	if f.req == nil { // the zero value flag.PrintDefaults compares defaults against
		return ""
	}
	return f.knob.Get(f.req)
}

// parseArgs parses and validates a flatsim command line, reporting any
// problem on stderr before returning it. Nonsense is rejected here, before
// any experiment spends time on it, with the messages /v1/cell gives.
func parseArgs(args []string, stderr io.Writer) (*cli, error) {
	c := &cli{req: experiments.NewRequest()}
	fs := flag.NewFlagSet("flatsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	for _, k := range experiments.Knobs() {
		if k.Flag() {
			fs.Var(knobFlag{k, &c.req}, k.Name, k.Usage)
		}
	}
	fs.BoolVar(&c.tsv, "tsv", false, "emit tab-separated values instead of aligned tables")
	fs.IntVar(&c.exportK, "exportk", 4, "network size for the export subcommand")
	fs.StringVar(&c.exportMode, "exportmode", "global-random", "flat-tree mode for the export subcommand")
	fs.StringVar(&c.exportFmt, "format", "dot", "export format: dot or json")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: flatsim [flags] %s|stats|export|all\n"+
			"       flatsim serve [serve flags]   (see flatsim serve -h)\n", strings.Join(experiments.CellExperiments(), "|"))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return nil, errors.New("want exactly one subcommand")
	}
	c.name = fs.Arg(0)
	for _, name := range c.experiments(c.name) {
		if _, err := c.request(name); err != nil {
			fmt.Fprintln(stderr, "flatsim:", err)
			return nil, err
		}
	}
	return c, nil
}

// experiments lists the registered experiments a subcommand runs.
func (c *cli) experiments(name string) []string {
	switch name {
	case "stats", "export":
		return nil
	case "all":
		return experiments.CellExperiments()
	}
	return []string{name}
}

// request is the resolved request of one registered experiment.
func (c *cli) request(name string) (experiments.Request, error) {
	req := c.req
	req.Spec.Experiment = name
	err := experiments.Resolve(&req)
	return req, err
}

// run executes one subcommand. Every registered experiment is one
// experiments.Cell call on the parsed knobs; only stats, export and all are
// CLI-only, and profile and soak call their drivers directly: profile for
// the line it prints after its table, soak to print a cancelled run's partial
// table.
func (c *cli) run(ctx context.Context, name string, stdout io.Writer) error {
	emit := func(t *experiments.Table) error {
		if c.tsv {
			if err := t.WriteTSV(stdout); err != nil {
				return err
			}
			_, err := fmt.Fprintln(stdout)
			return err
		}
		_, err := fmt.Fprintln(stdout, t.String())
		return err
	}
	switch name {
	case "stats":
		t, err := statsTable(c.req.Config)
		if err != nil {
			return err
		}
		return emit(t)
	case "export":
		return exportNetwork(stdout, c.exportK, c.exportMode, c.exportFmt)
	case "all":
		for _, n := range append([]string{"stats"}, c.experiments(name)...) {
			if err := c.run(ctx, n, stdout); err != nil {
				return err
			}
		}
		return nil
	}

	req, err := c.request(name)
	if err != nil {
		return err
	}
	switch name {
	case "profile":
		t, res, err := experiments.Profile(ctx, req.Config, req.Spec.ProfileK)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
		_, err = fmt.Fprintf(stdout, "best: m=%d n=%d apl=%.3f (paper's default: m=%d n=%d)\n",
			res.BestM, res.BestN, res.BestAPL, res.K/8, 2*res.K/8)
		return err
	case "soak":
		t, err := experiments.Soak(ctx, req.Config, req.Spec.K, req.Spec.Soak)
		// The partial table is still valid on cancellation; print what
		// finished before reporting the interruption.
		if len(t.Rows) > 0 {
			if err := emit(t); err != nil {
				return err
			}
		}
		return err
	}
	t, err := experiments.Cell(ctx, req.Config, req.Spec)
	if err != nil {
		return err
	}
	return emit(t)
}

// statsTable summarizes the constructed topologies per k: equipment counts
// and link tag breakdown for flat-tree in each mode.
func statsTable(cfg experiments.Config) (*experiments.Table, error) {
	t := &experiments.Table{
		Title: "topology inventory per k",
		Header: []string{"k", "topology", "servers", "switches", "links",
			"clos-links", "conv-links", "side-links", "rand-links"},
	}
	for _, k := range cfg.Ks() {
		add := func(name string, nw *topo.Network) {
			st := nw.Stats()
			t.AddRow(fmt.Sprint(k), name,
				fmt.Sprint(st.Servers),
				fmt.Sprint(st.EdgeSwitches+st.AggSwitches+st.CoreSwitches),
				fmt.Sprint(st.Links),
				fmt.Sprint(st.LinksByTag[topo.TagClos]),
				fmt.Sprint(st.LinksByTag[topo.TagConverter]),
				fmt.Sprint(st.LinksByTag[topo.TagSide]),
				fmt.Sprint(st.LinksByTag[topo.TagRandom]))
		}
		fat, err := fattree.New(k)
		if err != nil {
			return nil, err
		}
		add("fat-tree", fat.Net)
		rg, err := jellyfish.New(k, cfg.Seed)
		if err != nil {
			return nil, err
		}
		add("random-graph", rg.Net)
		_, n := core.DefaultMN(k)
		ts, err := twostage.New(k, n, cfg.Seed)
		if err != nil {
			return nil, err
		}
		add("two-stage-rg", ts.Net)
		ft, err := core.Build(core.Params{K: k})
		if err != nil {
			return nil, err
		}
		add("flat-tree/"+core.ModeClos.String(), ft.Net())
		for _, mode := range []core.Mode{core.ModeGlobalRandom, core.ModeLocalRandom} {
			if err := ft.SetUniformMode(mode); err != nil {
				return nil, err
			}
			add("flat-tree/"+mode.String(), ft.Net())
		}
	}
	return t, nil
}

// exportNetwork writes a flat-tree's effective network to w as DOT or JSON
// for external visualization and tooling.
func exportNetwork(w io.Writer, k int, mode, format string) error {
	var m core.Mode
	switch mode {
	case "clos":
		m = core.ModeClos
	case "global-random":
		m = core.ModeGlobalRandom
	case "local-random":
		m = core.ModeLocalRandom
	default:
		return fmt.Errorf("unknown export mode %q", mode)
	}
	ft, err := core.BuildIn(core.Params{K: k}, m)
	if err != nil {
		return err
	}
	switch format {
	case "dot":
		return ft.Net().WriteDOT(w)
	case "json":
		return ft.Net().WriteJSON(w)
	}
	return fmt.Errorf("unknown export format %q", format)
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "flatsim: run cancelled, results are partial:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "flatsim:", err)
	os.Exit(1)
}
