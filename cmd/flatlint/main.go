// Command flatlint runs the repository's custom static-analysis pass over
// the module's packages and reports violations of the correctness
// invariants documented in DESIGN.md ("Static analysis & invariants"):
//
//	floatcmp    no == / != on floating-point operands
//	globalrand  no package-global math/rand state
//	layering    the internal package dependency DAG
//	ignorederr  no discarded errors or dead blank assignments
//	nopanic     no panics in library packages
//	ctxbudget   ctx is the first parameter and never stored in a struct
//	stopchan    no raw stop channels in the context-scoped packages
//	maporder    no order-sensitive effects inside map ranges
//	gorolife    goroutines in library code are tied to a lifecycle
//	clockwall   wall-clock reads confined and banned transitively from
//	            the deterministic packages
//	randflow    RNGs are injected, never built from hard-coded seeds
//	testonly    library code outside the test support packages is reached
//	            from a main, an init or a package variable, not by tests
//	            alone
//
// The engine is interprocedural: packages load and type-check
// concurrently, per-function summaries are propagated over the call
// graph, and clockwall/randflow report violations reached through any
// chain of helpers.
//
// Usage:
//
//	go run ./cmd/flatlint ./...
//	go run ./cmd/flatlint -C /path/to/module -json ./internal/ctrl
//
// Findings print one per line as "file:line: analyzer: message"; with
// -json they print instead as a JSON array of {file, line, analyzer,
// message} objects (an empty array when clean), which is what
// scripts/check.sh archives next to the benchmark baselines.
//
// Exit codes are a contract: 0 means the tree is clean, 1 means findings
// were reported, 2 means the run itself failed (usage error, unknown
// package pattern, parse or type-check failure). Suppress a finding with
// "//flatlint:ignore <analyzer> <reason>" on, or directly above, the
// offending line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"flattree/internal/flatlint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: parses flags, lints, renders, and
// returns the process exit code (0 clean, 1 findings, 2 load/usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flatlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "module root directory (containing go.mod)")
	jsonOut := fs.Bool("json", false, "print findings as a JSON array instead of one line each")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: flatlint [-C dir] [-json] [./... | ./pkg/path ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Package errors already carry the "flatlint:" prefix.
	r, err := flatlint.NewRunner(*dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	findings, err := r.Run(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *jsonOut {
		if findings == nil {
			findings = []flatlint.Finding{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "flatlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
