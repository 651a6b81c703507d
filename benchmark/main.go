// Command benchmark is the repository's end-to-end and per-layer benchmark:
// five named workloads, eleven end-to-end metrics measured with tracing off,
// and a traced pass that attributes time to layers from outside, by timing
// calls into each package's exported functions. BENCHMARK.json at the repo
// root names the same workloads and metrics for the driver; README.md in
// this directory says what each one is for.
//
//	go run ./benchmark                         every workload, both passes
//	go run ./benchmark -workload fig8-alltoall one workload, both passes
//	go run ./benchmark -workload apl-sweep -trace 0   one pass; last line is
//	                                           the driver's JSON object
//	go run ./benchmark -repeat 2               run twice, compare the two
//	go run ./benchmark -compare A.json B.json  compare two result files
//	go run ./benchmark -write-refs             regenerate testdata/ref-*.tsv
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// suiteResult is one result file: provenance plus one result per
// (workload, pass) that ran.
type suiteResult struct {
	Provenance provenance `json:"provenance"`
	Results    []*result  `json:"results"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// bareTrace rewrites a value-less -trace (the form ISSUE.md documents) into
// "-trace 1"; the driver always passes "--trace 0" or "--trace 1".
func bareTrace(args []string) []string {
	var out []string
	for i, a := range args {
		out = append(out, a)
		if a != "-trace" && a != "--trace" {
			continue
		}
		if i+1 == len(args) || (args[i+1] != "0" && args[i+1] != "1") {
			out = append(out, "1")
		}
	}
	return out
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload (default: all five)")
	seed := fs.Uint64("seed", refSeed, "workload seed: drives Config.Seed of the first repetition, the first serve round's cell seed and request order, and a ctrl kill set")
	seconds := fs.Float64("seconds", defaultSeconds, "measuring time per workload on the untraced pass")
	trace := fs.String("trace", "", "0 = untraced pass only, 1 = traced pass only (default: both)")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for result files, traces and the scratch store")
	repeat := fs.Int("repeat", 1, "run the selection this many times and compare every later run with the first")
	compare := fs.Bool("compare", false, "compare two result files given as arguments instead of running")
	writeRefs := fs.Bool("write-refs", false, "regenerate benchmark/testdata/ref-<workload>.tsv from the anchor instance")
	if err := fs.Parse(bareTrace(args)); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "benchmark: "+format+"\n", a...)
		return 2
	}

	if *compare {
		if fs.NArg() != 2 {
			return fail("-compare needs exactly two result files")
		}
		a, err := readSuite(fs.Arg(0))
		if err != nil {
			return fail("%v", err)
		}
		b, err := readSuite(fs.Arg(1))
		if err != nil {
			return fail("%v", err)
		}
		if !printComparison(stdout, a, b) {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail("unexpected arguments %v", fs.Args())
	}

	selected := workloads
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			return fail("unknown workload %q", *workload)
		}
		selected = []workloadDef{*w}
	}
	var passes []bool // traced?
	switch *trace {
	case "":
		passes = []bool{false, true}
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	default:
		return fail("-trace %q: want 0 or 1", *trace)
	}
	if *writeRefs {
		passes = []bool{false}
	}
	if *repeat < 1 || *seconds < 1 {
		return fail("-repeat and -seconds must be at least 1")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fail("%v", err)
	}

	sz := full(*seconds)
	opt := options{sz: sz, seed: *seed, outDir: *outDir, refDir: filepath.Join("benchmark", "testdata"), writeRefs: *writeRefs}
	fmt.Fprintf(stdout, "benchmark: W=%d clients and workers, one process, loopback only — client and server share cores; link rates are not measured\n", sz.W)
	var suites []*suiteResult
	ok := true
	for rep := 1; rep <= *repeat; rep++ {
		s := &suiteResult{Provenance: readProvenance(sz, *seed)}
		for _, traced := range passes {
			for i := range selected {
				res, err := runWorkload(ctx, &selected[i], opt, traced)
				if err != nil {
					return fail("%v", err)
				}
				printResult(stdout, res)
				ok = ok && res.Failed == 0
				s.Results = append(s.Results, res)
			}
		}
		name := "results.json"
		if *repeat > 1 {
			name = fmt.Sprintf("results-%d.json", rep)
		}
		if err := writeSuite(filepath.Join(*outDir, name), s); err != nil {
			return fail("%v", err)
		}
		suites = append(suites, s)
	}
	for _, later := range suites[1:] {
		ok = printComparison(stdout, suites[0], later) && ok
	}
	if len(selected) == 1 && len(passes) == 1 && *repeat == 1 {
		printContractLine(stdout, suites[0].Results[0])
	}
	if !ok {
		return 1
	}
	return 0
}

func writeSuite(path string, s *suiteResult) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSuite(path string) (*suiteResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// passDefs returns the metric list of a pass.
func passDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printResult prints every metric of the pass by name with its unit.
func printResult(w io.Writer, r *result) {
	pass := "untraced: end-to-end metrics"
	if r.Traced {
		pass = "traced: per-layer metrics"
	}
	fmt.Fprintf(w, "\n== %s (%s; seed %d; %s, %.1f s)\n", r.Workload, pass, r.Seed,
		r.Start.Format(time.RFC3339), r.Stop.Sub(r.Start).Seconds())
	undefined := 0
	for _, d := range passDefs(r.Traced) {
		s := r.Metrics[d.Name]
		line := fmt.Sprintf("  %-26s %14.6g %-6s", d.Name, s.Value, s.Unit)
		switch {
		case s.AliasOf != "":
			line += fmt.Sprintf(" (not defined here: %s in this unit, since the driver wants every name on every workload)", s.AliasOf)
		case !d.definedOn(r.Workload):
			undefined++
			continue
		case s.N > 1:
			line += fmt.Sprintf(" median of n=%d: min %.6g q1 %.6g q3 %.6g max %.6g", s.N, s.Min, s.Q1, s.Q3, s.Max)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	if undefined > 0 {
		fmt.Fprintf(w, "  (%d per-layer metrics are not defined on this workload and read 0)\n", undefined)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed; reference: %s\n", r.Attempted, r.Failed, r.Reference)
	if r.TableSHA != "" {
		fmt.Fprintf(w, "  table sha256: %s\n", r.TableSHA)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// printContractLine prints the driver's one-line JSON object.
func printContractLine(w io.Writer, r *result) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, make(map[string]mv)}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out.Metrics[name] = mv{r.Metrics[name].Value, r.Metrics[name].Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(w, "benchmark: %v\n", err)
		return
	}
	fmt.Fprintf(w, "%s\n", b)
}
