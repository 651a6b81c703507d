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
//	flatsim -k 30 hybrid             # the paper's 30-pod hybrid study
//	flatsim -tsv all > results.tsv
//	flatsim -kmax 8 -trials 5 faultsrecovery   # §5 failure -> recovery table
//	flatsim -kmax 8 -failfrac 0.25 selfheal    # live self-healing trajectory
//	flatsim -kmax 8 -rate 1 -horizon 20 soak   # chaos soak: continuous failures vs self-healing
//	flatsim serve -listen :8447 -store ./flatstore   # experiment service with a persistent cell cache
//
// The subcommands are the registry of internal/experiments (plus the
// CLI-only stats, export and all), and the experiment flags are its knob
// table, experiments.Knobs(): every knob is a flag and a /v1/cell query
// parameter with one spelling, default and domain, and both reject the same
// values with the same message. -k sizes every experiment that builds a
// single network, export's included.
//
// Long sweeps respond to Ctrl-C / SIGTERM and to -timeout by stopping
// promptly with a partial-result message; already-printed tables remain
// valid.
package main

import (
	"cmp"
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
	// The serve subcommand has its own flags (service knobs, not
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
	exportMode             core.Mode
	exportFmt              string
	cpuProfile, memProfile string
}

// exportK is export's network size when -k is unset.
const exportK = 4

// knobFlag adapts one experiments.Knob to flag.Value: the flag's spelling,
// help text, default, parse and domain check all come from the knob.
type knobFlag struct {
	knob experiments.Knob
	req  *experiments.Request
}

func (f knobFlag) Set(s string) error { return f.knob.Set(f.req, s) }

// String renders the knob's value, or "" — no default in -h — when the
// value is one the knob's own Set rejects: that is the unset marker of a
// knob whose default is decided later (k's 0: kmax or the experiment's
// own size), not a value a user could give.
func (f knobFlag) String() string {
	if f.req == nil { // the zero value flag.PrintDefaults compares defaults against
		return ""
	}
	v := f.knob.Get(f.req)
	if f.knob.Set(new(experiments.Request), v) != nil {
		return ""
	}
	return v
}

// parseArgs parses and validates a flatsim command line, reporting any
// problem on stderr before returning it. Nonsense is rejected here, before
// any experiment spends time on it, with the messages /v1/cell gives.
func parseArgs(args []string, stderr io.Writer) (*cli, error) {
	c := &cli{req: experiments.NewRequest()}
	fs := flag.NewFlagSet("flatsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	for _, k := range experiments.Knobs() {
		fs.Var(knobFlag{k, &c.req}, k.Name, k.Usage)
	}
	fs.IntVar(&c.req.Config.Parallelism, "parallel", 0, "worker goroutines per experiment sweep (0 = all cores); output is identical for every setting")
	fs.BoolVar(&c.tsv, "tsv", false, "emit tab-separated values instead of aligned tables")
	exportMode := fs.String("exportmode", "global-random", "flat-tree mode for the export subcommand: clos, global-random or local-random")
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
	report := func(err error) (*cli, error) {
		fmt.Fprintln(stderr, "flatsim:", err)
		return nil, err
	}
	var err error
	if c.exportMode, err = core.ParseMode(*exportMode); err != nil {
		return report(err)
	}
	if c.exportFmt != "dot" && c.exportFmt != "json" {
		return report(fmt.Errorf("unknown export format %q (want dot or json)", c.exportFmt))
	}
	for _, name := range c.experiments(c.name) {
		if _, err := c.request(name); err != nil {
			return report(err)
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
// CLI-only, and profile calls its driver directly for the line it prints
// after its table.
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
		return exportNetwork(stdout, cmp.Or(c.req.Spec.K, exportK), c.exportMode, c.exportFmt)
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
	if name == "profile" {
		t, res, err := experiments.Profile(ctx, req.Config, req.Spec.K)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
		_, err = fmt.Fprintf(stdout, "best: m=%d n=%d apl=%.3f (paper's default: m=%d n=%d)\n",
			res.BestM, res.BestN, res.BestAPL, res.K/8, 2*res.K/8)
		return err
	}
	t, err := experiments.Cell(ctx, req.Config, req.Spec)
	// A table returned beside an error is a cancelled run's finished rows
	// (soak's), still valid: print them before reporting the interruption.
	if t != nil && (err == nil || len(t.Rows) > 0) {
		if err := emit(t); err != nil {
			return err
		}
	}
	return err
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
// (parseArgs has checked format) for external visualization and tooling.
func exportNetwork(w io.Writer, k int, mode core.Mode, format string) error {
	ft, err := core.BuildIn(core.Params{K: k}, mode)
	if err != nil {
		return err
	}
	if format == "json" {
		return ft.Net().WriteJSON(w)
	}
	return ft.Net().WriteDOT(w)
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
