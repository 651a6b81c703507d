package flatlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"flattree/internal/parallel"
)

// This file is phase 1.5 and phase 2 of the engine: per-function
// summaries and their propagation over the call graph.
//
// A summary records, for one declared function (function literals nested
// in its body fold into it), the static module-local calls it makes and
// whether it directly touches one of the analyzer sinks: a wall-clock
// read (time.Now/Since/Until), an RNG constructed from a compile-time
// constant seed (graph.NewRNG(42), rand.NewSource(1)), or a process exit
// (os.Exit, log.Fatal*, runtime.Goexit). Propagation then answers "does
// this function *reach* a sink, and through which call chain" — the
// interprocedural question the clockwall, randflow, and maporder
// analyzers ask. Dynamic calls (interface methods, stored function
// values) are not resolved; that unsoundness is acceptable for a linter
// and keeps the call graph purely syntactic.

// callEdge is one static call site: callee plus the position of the call
// expression inside the caller. Edges keep source order, which makes the
// propagation's choice of witness chain deterministic.
type callEdge struct {
	callee *types.Func
	pos    token.Pos
}

// funcSummary is the phase-1 record for one declared function.
type funcSummary struct {
	fn   *types.Func
	pkg  *Pkg
	decl *ast.FuncDecl

	calls []callEdge // module-local static callees, first call site each

	clockPos  token.Pos // first direct wall-clock read (NoPos if none)
	clockSink string    // "time.Now", "time.Since", ...
	randPos   token.Pos // first constant-seed RNG construction
	randSink  string    // "graph.NewRNG(42)", "rand.NewSource(1)", ...
	exitPos   token.Pos // first direct process exit
}

// reach is the phase-2 result for one function and one sink kind: the
// shortest known call distance to the sink, the position *inside this
// function* to report at (the direct sink or the call that leads there),
// and the callee the taint arrived through (nil for a direct sink).
type reach struct {
	depth int
	site  token.Pos
	via   *types.Func
}

// program is the whole-module interprocedural index shared (read-only) by
// every package checker.
type program struct {
	module string
	fset   *token.FileSet
	sums   map[*types.Func]*funcSummary
	byPkg  map[string][]*funcSummary // import path -> summaries in decl order
	clock  map[*types.Func]*reach
	randc  map[*types.Func]*reach
	exits  map[*types.Func]*reach

	refs   map[*types.Func]bool          // referenced from a non-test file outside their own body
	ifaces map[string][]*types.Interface // interfaces the module mentions, by method name
}

// clockTrusted are the packages allowed to own wall-clock reads — ctrl
// (liveness deadlines, write timeouts) and mcf (solver time budgets).
// They are trust boundaries for propagation: a call into them contributes
// no clock taint to the caller, so experiments may run budgeted solves
// and stand up control planes without tripping clockwall. Their own
// direct reads still need reasoned //flatlint:ignore directives.
var clockTrusted = map[string]bool{
	"internal/ctrl": true,
	"internal/mcf":  true,
}

// deterministicPkgs are the packages whose outputs must be a pure
// function of (topology, seed): the graph substrate, the labeled
// topology, routing, metrics, and the experiment drivers that build the
// published tables. clockwall and randflow report transitive violations
// only here — elsewhere a helper reaching time.Now is someone else's
// problem until a deterministic package calls it.
var deterministicPkgs = map[string]bool{
	"internal/graph":       true,
	"internal/topo":        true,
	"internal/routing":     true,
	"internal/metrics":     true,
	"internal/experiments": true,
}

// buildProgram summarizes every loaded package (fanning out through
// internal/parallel) and propagates the three sink kinds to fixed points.
func buildProgram(r *Runner) (*program, error) {
	perPkg, err := parallel.Map(len(r.order), 0, func(i int) ([]*funcSummary, error) {
		return summarize(r.module, r.pkgs[r.order[i]]), nil
	})
	if err != nil {
		return nil, err
	}
	p := &program{
		module: r.module,
		fset:   r.fset,
		sums:   make(map[*types.Func]*funcSummary),
		byPkg:  make(map[string][]*funcSummary, len(r.order)),
	}
	var order []*funcSummary // global, deterministic: sorted pkgs, decl order
	for i, sums := range perPkg {
		p.byPkg[r.order[i]] = sums
		for _, s := range sums {
			p.sums[s.fn] = s
		}
		order = append(order, sums...)
	}
	p.clock = propagate(order, func(s *funcSummary) token.Pos { return s.clockPos },
		func(s *funcSummary) bool { return clockTrusted[s.pkg.RelPath] })
	p.randc = propagate(order, func(s *funcSummary) token.Pos { return s.randPos }, nil)
	p.exits = propagate(order, func(s *funcSummary) token.Pos { return s.exitPos }, nil)
	p.indexRefs(r)
	return p, nil
}

// summarize builds the phase-1 summaries for one package.
func summarize(module string, pkg *Pkg) []*funcSummary {
	var out []*funcSummary
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			s := &funcSummary{fn: obj, pkg: pkg, decl: fd}
			seen := make(map[*types.Func]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeOf(pkg.Info, call)
				if callee == nil || callee.Pkg() == nil {
					return true
				}
				path, name := callee.Pkg().Path(), callee.Name()
				switch {
				case path == "time" && clockFuncs[name]:
					if s.clockPos == token.NoPos {
						s.clockPos, s.clockSink = call.Pos(), "time."+name
					}
				case isExitCall(path, name):
					if s.exitPos == token.NoPos {
						s.exitPos = call.Pos()
					}
				case path == module || strings.HasPrefix(path, module+"/"):
					if !seen[callee] {
						seen[callee] = true
						s.calls = append(s.calls, callEdge{callee: callee, pos: call.Pos()})
					}
				}
				if desc, ok := randCtorSink(pkg.Info, call, callee); ok && s.randPos == token.NoPos {
					s.randPos, s.randSink = call.Pos(), desc
				}
				return true
			})
			out = append(out, s)
		}
	}
	return out
}

// clockFuncs are the time package's wall-clock reads. Timers and sleeps
// do not *observe* the clock into a result, so they are not sinks.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// isExitCall reports whether pkg.name can terminate the process.
func isExitCall(path, name string) bool {
	switch path {
	case "os":
		return name == "Exit"
	case "runtime":
		return name == "Goexit"
	case "log":
		return name == "Fatal" || name == "Fatalf" || name == "Fatalln"
	}
	return false
}

// randCtorSink reports whether call constructs a random generator from
// compile-time constant arguments — a hard-coded seed. Matched
// constructors: graph.NewRNG (by package suffix, so fixtures resolve
// too) and the math/rand source constructors.
func randCtorSink(info *types.Info, call *ast.CallExpr, callee *types.Func) (string, bool) {
	path, name := callee.Pkg().Path(), callee.Name()
	var short string
	switch {
	case strings.HasSuffix(path, "internal/graph") && name == "NewRNG":
		short = "graph"
	case (path == "math/rand" || path == "math/rand/v2") &&
		(name == "NewSource" || name == "NewPCG" || name == "NewChaCha8"):
		short = "rand"
	default:
		return "", false
	}
	if len(call.Args) == 0 {
		return "", false
	}
	args := make([]string, len(call.Args))
	for i, a := range call.Args {
		tv, ok := info.Types[a]
		if !ok || tv.Value == nil {
			return "", false // seed is not a constant: injected, so fine
		}
		args[i] = tv.Value.String()
	}
	return short + "." + name + "(" + strings.Join(args, ", ") + ")", true
}

// calleeOf resolves the static callee of a call expression: a package
// function, a method with a concrete receiver, or a qualified identifier.
// Interface calls and called function values resolve to nil.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// propagate computes, for every function, the shortest call distance to a
// direct sink (given by direct) over the static call graph. Functions for
// which stop returns true neither carry nor forward taint — they are the
// trust boundaries. The iteration is a deterministic Bellman-Ford-style
// fixed point: functions in global summary order, call edges in source
// order, and a function's reach only ever replaced by a strictly shorter
// one, so the chosen witness chains are reproducible run to run.
func propagate(order []*funcSummary, direct func(*funcSummary) token.Pos, stop func(*funcSummary) bool) map[*types.Func]*reach {
	out := make(map[*types.Func]*reach, len(order))
	for _, s := range order {
		if stop != nil && stop(s) {
			continue
		}
		if p := direct(s); p != token.NoPos {
			out[s.fn] = &reach{depth: 0, site: p}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, s := range order {
			if stop != nil && stop(s) {
				continue
			}
			cur := out[s.fn]
			if cur != nil && cur.depth == 0 {
				continue // direct sinks are already minimal
			}
			best := cur
			for _, e := range s.calls {
				rc, ok := out[e.callee]
				if !ok || e.callee == s.fn {
					continue
				}
				if best == nil || rc.depth+1 < best.depth {
					best = &reach{depth: rc.depth + 1, site: e.pos, via: e.callee}
				}
			}
			if best != cur {
				out[s.fn] = best
				changed = true
			}
		}
	}
	return out
}

// shortName renders a function for a message with the module prefix
// stripped: "core.TickTock", "(*ctrl.Controller).Serve".
func (p *program) shortName(fn *types.Func) string {
	full := fn.FullName()
	full = strings.ReplaceAll(full, p.module+"/internal/", "")
	return strings.ReplaceAll(full, p.module+"/", "")
}

// path renders the witness chain from fn to the sink, e.g.
// "core.TickTock → core.tick → time.Now". sinkOf extracts the sink
// description from the directly-tainted summary at the end of the chain.
func (p *program) path(fn *types.Func, m map[*types.Func]*reach, sinkOf func(*funcSummary) string) string {
	var parts []string
	for hop := 0; fn != nil && hop < 12; hop++ {
		parts = append(parts, p.shortName(fn))
		rc := m[fn]
		if rc == nil {
			break
		}
		if rc.via == nil {
			if s := p.sums[fn]; s != nil {
				parts = append(parts, sinkOf(s))
			}
			break
		}
		fn = rc.via
	}
	return strings.Join(parts, " → ")
}

func clockSinkOf(s *funcSummary) string { return s.clockSink }
func randSinkOf(s *funcSummary) string  { return s.randSink }
