// Package flatlint is the repository's custom static-analysis pass. It
// loads every package in the module using only the standard library
// (go/parser + go/types with a source importer for the standard library)
// and runs a table of repo-specific analyzers that machine-check the
// correctness invariants the Flat-tree reproduction depends on: no exact
// float equality in the numerics, no package-global randomness, a strict
// package layering DAG, no silently discarded errors, no panics in
// library code, deterministic map iteration, lifecycle-tied goroutines,
// wall-clock / RNG hygiene, and no library code that only tests reach.
//
// The engine is two-phase and interprocedural. Phase 1 parses and
// type-checks the module's packages concurrently (fan-out bounded by
// internal/parallel; packages type-check in dependency waves so imports
// are always resolved from finished work) and builds a per-function
// summary: the static calls it makes, whether it reads the wall clock,
// constructs an RNG from a hard-coded seed, or can terminate the process.
// Phase 2 propagates those summaries over the call graph to a fixed
// point, so analyzers can report *transitive* violations — a
// deterministic-layer function that reaches time.Now three calls down is
// flagged at its own call site, with the offending call chain in the
// message.
//
// Findings print as "file:line: analyzer: message" with paths relative to
// the module root. A finding can be suppressed with a directive comment
//
//	//flatlint:ignore <analyzer> <reason>
//
// placed either at the end of the offending line or alone on the line
// directly above it. The reason is mandatory: a directive without one is
// itself a finding, so every suppression carries its justification in the
// source.
package flatlint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"flattree/internal/parallel"
)

// Finding is one analyzer report, already positioned. The JSON field
// names are the machine-readable contract of `flatlint -json`.
type Finding struct {
	File     string `json:"file"` // path relative to the module root
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.File, f.Line, f.Analyzer, f.Message)
}

// Pkg is one loaded, type-checked package.
type Pkg struct {
	Path    string // full import path ("flattree/internal/graph")
	RelPath string // path relative to the module ("internal/graph"; "" for root)
	Dir     string
	Files   []*ast.File
	// TestFiles are the package's _test.go files, parsed but not
	// type-checked: analyzers of test code read their syntax alone.
	TestFiles []*ast.File
	Fset      *token.FileSet
	Types     *types.Package
	Info      *types.Info
}

// Runner loads and checks the packages of a single module.
type Runner struct {
	root   string // absolute module root
	module string // module path from go.mod

	fset    *token.FileSet
	pkgDirs map[string]string // import path -> absolute dir

	stdMu sync.Mutex // serializes the (stateful) standard-library importer
	std   types.Importer

	pkgs  map[string]*Pkg // every loaded package, keyed by import path
	order []string        // sorted import paths of r.pkgs
	prog  *program        // interprocedural summaries (built once per Run)
}

// NewRunner prepares a runner for the module rooted at dir (the directory
// containing go.mod).
func NewRunner(dir string) (*Runner, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The source importer type-checks the standard library from GOROOT
	// source; disable cgo so packages like net resolve via their pure-Go
	// fallbacks instead of failing on cgo preprocessing.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	r := &Runner{
		root:    abs,
		module:  module,
		fset:    fset,
		pkgDirs: make(map[string]string),
		std:     importer.ForCompiler(fset, "source", nil),
	}
	if err := r.discover(); err != nil {
		return nil, err
	}
	return r, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("flatlint: reading module file: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("flatlint: no module directive in %s", gomod)
}

// discover maps every package directory in the module to its import path.
// testdata, vendor, hidden, and underscore-prefixed directories are
// skipped, matching the go tool's conventions.
func (r *Runner) discover() error {
	return filepath.WalkDir(r.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != r.root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				rel, err := filepath.Rel(r.root, path)
				if err != nil {
					return err
				}
				ip := r.module
				if rel != "." {
					ip = r.module + "/" + filepath.ToSlash(rel)
				}
				r.pkgDirs[ip] = path
				break
			}
		}
		return nil
	})
}

// Packages returns the sorted import paths of every package in the module.
func (r *Runner) Packages() []string {
	paths := make([]string, 0, len(r.pkgDirs))
	for p := range r.pkgDirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// Import resolves an import path for the type checker: module-local
// packages must already have been type-checked by an earlier dependency
// wave; everything else is handed to the standard-library importer, which
// is stateful and therefore serialized.
func (r *Runner) Import(path string) (*types.Package, error) {
	if path == r.module || strings.HasPrefix(path, r.module+"/") {
		if pkg, ok := r.pkgs[path]; ok {
			return pkg.Types, nil
		}
		return nil, fmt.Errorf("flatlint: no package %q in module %s", path, r.module)
	}
	r.stdMu.Lock()
	defer r.stdMu.Unlock()
	return r.std.Import(path)
}

// Run loads every package in the module (interprocedural analysis needs
// the whole call graph), builds the function summaries, and runs all
// analyzers over the packages matched by patterns. Supported patterns:
// "./..." (every package in the module) or a "./"-prefixed package
// directory. With no patterns, "./..." is assumed. Findings return sorted
// by file, line, then analyzer; suppressed and directive-consumed
// findings are already filtered out.
func (r *Runner) Run(patterns []string) ([]Finding, error) {
	if err := r.loadAll(); err != nil {
		return nil, err
	}
	if r.prog == nil {
		prog, err := buildProgram(r)
		if err != nil {
			return nil, err
		}
		r.prog = prog
	}
	paths, err := r.expand(patterns)
	if err != nil {
		return nil, err
	}
	perPkg, err := parallel.Map(len(paths), 0, func(i int) ([]Finding, error) {
		return r.check(r.pkgs[paths[i]]), nil
	})
	if err != nil {
		return nil, err
	}
	var all []Finding
	for _, fs := range perPkg {
		all = append(all, fs...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return all, nil
}

func (r *Runner) expand(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			for _, p := range r.Packages() {
				add(p)
			}
		default:
			rel := filepath.ToSlash(strings.TrimPrefix(strings.TrimPrefix(pat, "./"), "/"))
			ip := r.module
			if rel != "" && rel != "." {
				ip = r.module + "/" + rel
			}
			if _, ok := r.pkgDirs[ip]; !ok {
				return nil, fmt.Errorf("flatlint: pattern %q matches no package in %s", pat, r.module)
			}
			add(ip)
		}
	}
	sort.Strings(out)
	return out, nil
}

// check runs every analyzer on one package and applies ignore directives.
// Each package gets its own pkgChecker, so check is safe to call
// concurrently for different packages: analyzers only write through the
// checker and only read the (frozen) program summaries.
func (r *Runner) check(pkg *Pkg) []Finding {
	pc := &pkgChecker{r: r, pkg: pkg, prog: r.prog}
	pc.collectDirectives()
	for _, a := range analyzers {
		if a.internalOnly && !strings.HasPrefix(pkg.RelPath, "internal/") {
			continue
		}
		a.run(pc)
	}
	return pc.finish()
}

// directive is one parsed //flatlint:ignore comment.
type directive struct {
	file     string
	line     int
	analyzer string
	reason   string
	used     bool
}

// pkgChecker carries per-package analysis state and finding collection.
type pkgChecker struct {
	r          *Runner
	pkg        *Pkg
	prog       *program
	findings   []Finding
	directives []*directive
}

// relFile converts a token.Pos to a (module-relative file, line) pair.
func (pc *pkgChecker) relFile(pos token.Pos) (string, int) {
	p := pc.pkg.Fset.Position(pos)
	rel, err := filepath.Rel(pc.r.root, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return filepath.ToSlash(rel), p.Line
}

// reportf records a finding for analyzer at pos.
func (pc *pkgChecker) reportf(analyzer string, pos token.Pos, format string, args ...any) {
	file, line := pc.relFile(pos)
	pc.findings = append(pc.findings, Finding{
		File:     file,
		Line:     line,
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

const ignorePrefix = "//flatlint:ignore"

// collectDirectives parses every //flatlint:ignore comment in the package.
// Malformed directives (missing analyzer, unknown analyzer, or missing
// reason) are reported as findings of the "directive" pseudo-analyzer so a
// suppression can never silently fail to apply. Test files are read by
// testskip alone, so there only its directives count; one naming another
// analyzer is a comment about code no pass reads.
func (pc *pkgChecker) collectDirectives() {
	for _, f := range pc.pkg.Files {
		pc.collectFileDirectives(f, false)
	}
	for _, f := range pc.pkg.TestFiles {
		pc.collectFileDirectives(f, true)
	}
}

// collectFileDirectives parses the directives of one file; in a test file
// it skips those naming an analyzer other than testskip.
func (pc *pkgChecker) collectFileDirectives(f *ast.File, test bool) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(c.Text, ignorePrefix))
			if test && len(fields) > 0 && fields[0] != "testskip" {
				continue
			}
			file, line := pc.relFile(c.Pos())
			if len(fields) == 0 || !knownAnalyzers[fields[0]] {
				pc.reportf("directive", c.Pos(),
					"ignore directive needs a known analyzer (one of %s)", analyzerNames())
				continue
			}
			if len(fields) < 2 {
				pc.reportf("directive", c.Pos(),
					"ignore directive for %q needs a reason", fields[0])
				continue
			}
			pc.directives = append(pc.directives, &directive{
				file:     file,
				line:     line,
				analyzer: fields[0],
				reason:   strings.Join(fields[1:], " "),
			})
		}
	}
}

// finish applies suppressions and reports unused directives. A directive
// suppresses findings of its analyzer on its own line or the line directly
// below (the standalone-comment-above form).
func (pc *pkgChecker) finish() []Finding {
	var out []Finding
	for _, f := range pc.findings {
		suppressed := false
		for _, d := range pc.directives {
			if d.analyzer == f.Analyzer && d.file == f.File &&
				(d.line == f.Line || d.line == f.Line-1) {
				d.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, f)
		}
	}
	for _, d := range pc.directives {
		if !d.used {
			out = append(out, Finding{
				File:     d.file,
				Line:     d.line,
				Analyzer: "directive",
				Message:  fmt.Sprintf("unused ignore directive for %q (no matching finding)", d.analyzer),
			})
		}
	}
	return out
}
