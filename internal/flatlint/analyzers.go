package flatlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// analyzer is one named pass over a type-checked package. internalOnly
// passes apply to internal/ library packages but not to cmd/, examples/,
// or the module root, where the rules differ (a main may panic, an example
// may drop an error on shutdown).
type analyzer struct {
	name         string
	internalOnly bool
	run          func(*pkgChecker)
}

var analyzers = []analyzer{
	{name: "floatcmp", run: runFloatcmp},
	{name: "globalrand", run: runGlobalrand},
	{name: "layering", run: runLayering},
	{name: "ignorederr", internalOnly: true, run: runIgnorederr},
	{name: "nopanic", internalOnly: true, run: runNopanic},
	{name: "ctxbudget", run: runCtxbudget},
	{name: "stopchan", run: runStopchan},
	{name: "maporder", run: runMaporder},
	{name: "gorolife", internalOnly: true, run: runGorolife},
	{name: "clockwall", internalOnly: true, run: runClockwall},
	{name: "randflow", internalOnly: true, run: runRandflow},
	{name: "httptimeout", run: runHttptimeout},
	{name: "testskip", run: runTestskip},
	{name: "testonly", internalOnly: true, run: runTestonly},
}

var knownAnalyzers = func() map[string]bool {
	m := map[string]bool{"directive": true}
	for _, a := range analyzers {
		m[a.name] = true
	}
	return m
}()

func analyzerNames() string {
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		names = append(names, a.name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// ---------------------------------------------------------------- floatcmp

// epsilonHelper reports whether a function is an approved epsilon-
// comparison helper, inside which exact float equality is the point (e.g.
// the short-circuit `a == b ||` before a tolerance check). Approval is by
// name so the helper is self-documenting at every call site.
func epsilonHelper(name string) bool {
	n := strings.ToLower(name)
	return strings.Contains(n, "approxeq") || strings.Contains(n, "almosteq") ||
		strings.Contains(n, "withineps") || strings.Contains(n, "floateq")
}

// runFloatcmp flags == and != where either operand is floating point (or
// complex). Exact float equality is almost never what a numeric simulator
// wants: FPTAS/LP cross-validation tolerances, link utilizations, and
// throughput fractions all accumulate rounding. Comparisons belong in an
// epsilon helper; genuinely-exact sentinel checks carry an ignore
// directive explaining why exactness holds.
func runFloatcmp(pc *pkgChecker) {
	info := pc.pkg.Info
	for _, f := range pc.pkg.Files {
		// Body ranges of approved helpers; function literals nested inside
		// a helper inherit its approval by position containment.
		type span struct{ lo, hi token.Pos }
		var approved []span
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil && epsilonHelper(fd.Name.Name) {
				approved = append(approved, span{fd.Body.Pos(), fd.Body.End()})
			}
		}
		inHelper := func(p token.Pos) bool {
			for _, s := range approved {
				if s.lo <= p && p < s.hi {
					return true
				}
			}
			return false
		}
		ast.Inspect(f, func(n ast.Node) bool {
			cmp, ok := n.(*ast.BinaryExpr)
			if !ok || (cmp.Op != token.EQL && cmp.Op != token.NEQ) {
				return true
			}
			if inHelper(cmp.OpPos) {
				return true
			}
			if isFloat(info.TypeOf(cmp.X)) || isFloat(info.TypeOf(cmp.Y)) {
				pc.reportf("floatcmp", cmp.OpPos,
					"%s on floating-point operands; use an epsilon comparison", cmp.Op)
			}
			return true
		})
	}
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// -------------------------------------------------------------- globalrand

// globalrandConstructors are the math/rand package-level functions that
// build a locally-owned generator rather than touching shared global
// state; they are the approved escape hatch.
var globalrandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// runGlobalrand forbids the package-global math/rand (and math/rand/v2)
// functions. Topology construction and experiment trials must be
// reproducible from an explicit seed, which global rand state breaks: any
// other call site advances the shared stream and silently changes every
// subsequent "random" topology. Constructors (rand.New, rand.NewSource,
// ...) are allowed; so is this repo's own injected graph.RNG.
func runGlobalrand(pc *pkgChecker) {
	info := pc.pkg.Info
	for _, f := range pc.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			pkgPath := obj.Pkg().Path()
			if pkgPath != "math/rand" && pkgPath != "math/rand/v2" {
				return true
			}
			// Only package-scope objects are global state; methods on a
			// *rand.Rand value (obj parent != package scope) are fine.
			if obj.Parent() != obj.Pkg().Scope() {
				return true
			}
			if _, isFn := obj.(*types.Func); isFn && globalrandConstructors[obj.Name()] {
				return true
			}
			pc.reportf("globalrand", sel.Pos(),
				"package-global %s.%s breaks seeded reproducibility; inject a *rand.Rand (or graph.RNG)",
				pkgPath, obj.Name())
			return true
		})
	}
}

// ---------------------------------------------------------------- layering

// layerOf assigns every internal package a layer in the dependency DAG.
// An import is legal only from a higher layer to a strictly lower one:
//
//	layer 0: parallel                         (worker pool + seed streams, std-lib only)
//	layer 1: converter, graph, lp, flatlint, store (leaf utilities)
//	layer 2: topo                             (labeled topology model)
//	layer 3: core, fattree, jellyfish, mcf, metrics, oracle, routing
//	layer 4: faults, netsim, traffic, twostage (failures, simulators, workloads)
//	layer 5: ctrl                             (control plane)
//	layer 6: chaos                            (soak engine; drives ctrl plants)
//	layer 7: experiments                      (drivers; may stand up ctrl plants)
//	layer 8: serve                            (experiment service; caches experiments in store)
//
// parallel sits below everything so that any layer, from the lint runner to
// the experiment drivers, can fan work out through the same runner.
//
// cmd/, examples/, and the module root sit above every layer and may
// import anything. A new internal package must be added here before it can
// be imported, so the DAG stays a reviewed, explicit artifact.
var layerOf = map[string]int{
	"internal/parallel":    0,
	"internal/converter":   1,
	"internal/flatlint":    1,
	"internal/graph":       1,
	"internal/lp":          1,
	"internal/store":       1,
	"internal/topo":        2,
	"internal/core":        3,
	"internal/fattree":     3,
	"internal/jellyfish":   3,
	"internal/mcf":         3,
	"internal/metrics":     3,
	"internal/oracle":      3,
	"internal/routing":     3,
	"internal/faults":      4,
	"internal/netsim":      4,
	"internal/traffic":     4,
	"internal/twostage":    4,
	"internal/ctrl":        5,
	"internal/chaos":       6,
	"internal/experiments": 7,
	"internal/serve":       8,
}

// runLayering enforces the package dependency DAG above.
func runLayering(pc *pkgChecker) {
	rel := pc.pkg.RelPath
	fromLayer, fromKnown := layerOf[rel]
	if strings.HasPrefix(rel, "internal/") && !fromKnown {
		pc.reportf("layering", pc.pkg.Files[0].Package,
			"package %s is not in the layering table; add it to layerOf in internal/flatlint/analyzers.go", rel)
		return
	}
	module := pc.r.module
	for _, f := range pc.pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if !strings.HasPrefix(path, module+"/") {
				continue
			}
			impRel := strings.TrimPrefix(path, module+"/")
			toLayer, toKnown := layerOf[impRel]
			if strings.HasPrefix(impRel, "internal/") && !toKnown {
				pc.reportf("layering", imp.Pos(),
					"import of %s, which is not in the layering table", impRel)
				continue
			}
			if !fromKnown || !toKnown {
				continue // importer is cmd/examples/root: unrestricted
			}
			if toLayer >= fromLayer {
				pc.reportf("layering", imp.Pos(),
					"%s (layer %d) may not import %s (layer %d); the dependency DAG only allows imports of strictly lower layers",
					rel, fromLayer, impRel, toLayer)
			}
		}
	}
}

// -------------------------------------------------------------- ignorederr

// runIgnorederr flags blank assignments that throw information away in
// library code: `_ = f()` where f returns an error (the error must be
// handled, recorded, or explicitly waived with a reasoned directive), and
// `_ = x` of a bare identifier (a dead assignment that only exists to
// quiet the compiler about an unused value — delete the value instead).
func runIgnorederr(pc *pkgChecker) {
	info := pc.pkg.Info
	for _, f := range pc.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.ASSIGN {
				return true
			}
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
					return true
				}
			}
			// All-blank plain assignment. What is being discarded?
			if len(as.Rhs) == 1 {
				switch rhs := as.Rhs[0].(type) {
				case *ast.CallExpr:
					if returnsError(info, rhs) {
						pc.reportf("ignorederr", as.Pos(),
							"error from %s discarded with _ =; handle or record it", callName(rhs))
					}
					return true
				case *ast.Ident:
					pc.reportf("ignorederr", as.Pos(),
						"dead assignment _ = %s; remove the unused value", rhs.Name)
					return true
				}
			}
			return true
		})
	}
}

// returnsError reports whether call's result type is or contains error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErrorType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

var errorIface = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorIface)
}

// callName renders a call target for a message ("a.send", "doWork").
func callName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		if x, ok := fn.X.(*ast.Ident); ok {
			return x.Name + "." + fn.Sel.Name
		}
		return fn.Sel.Name
	default:
		return "call"
	}
}

// --------------------------------------------------------------- ctxbudget

// isContextType reports whether t is the context.Context interface.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// runCtxbudget enforces the repo's cancellation conventions: an exported
// function or method that accepts a context.Context must take it as the
// first parameter (so every call site reads uniformly and the context is
// never an afterthought), and a context must never be stored in a struct
// field — a context is call-scoped, and stashing one in a struct detaches
// cancellation from the call tree that owns it.
func runCtxbudget(pc *pkgChecker) {
	info := pc.pkg.Info
	for _, f := range pc.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if !n.Name.IsExported() || n.Type.Params == nil {
					return true
				}
				idx := 0 // flattened parameter index across grouped names
				for _, field := range n.Type.Params.List {
					width := len(field.Names)
					if width == 0 {
						width = 1
					}
					if isContextType(info.TypeOf(field.Type)) && idx != 0 {
						pc.reportf("ctxbudget", field.Pos(),
							"exported %s takes a context.Context after other parameters; ctx must come first",
							n.Name.Name)
					}
					idx += width
				}
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if isContextType(info.TypeOf(field.Type)) {
						pc.reportf("ctxbudget", field.Pos(),
							"context.Context stored in a struct field; contexts are call-scoped — pass ctx as the first parameter instead")
					}
				}
			}
			return true
		})
	}
}

// ----------------------------------------------------------------- nopanic

// runNopanic flags panic calls in internal library packages. Library code
// should return errors so callers (experiments, the control plane) can
// degrade gracefully; the approved exceptions — construction-invariant
// panics that indicate a programmer error no caller could recover from —
// each carry an ignore directive stating the invariant.
func runNopanic(pc *pkgChecker) {
	info := pc.pkg.Info
	for _, f := range pc.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			pc.reportf("nopanic", call.Pos(),
				"panic in library package %s; return an error instead", pc.pkg.RelPath)
			return true
		})
	}
}

// ---------------------------------------------------------------- stopchan

// stopchanPackages are the packages whose lifecycles were migrated onto
// context.Context: the controller, agents, and the network simulators all
// cancel through the ctx passed at the call site. A new raw stop/quit
// channel there would fork the cancellation mechanism back into two
// halves that cannot compose (a select on a stop channel ignores ctx and
// vice versa).
var stopchanPackages = map[string]bool{
	"internal/ctrl":   true,
	"internal/netsim": true,
}

// stopchanName reports whether a variable name reads like a lifecycle
// signal channel.
func stopchanName(name string) bool {
	n := strings.ToLower(name)
	for _, s := range []string{"stop", "quit", "halt", "kill", "done"} {
		if strings.Contains(n, s) {
			return true
		}
	}
	return false
}

// runStopchan forbids raw `make(chan struct{})` stop/quit channels in the
// control-plane and dynamic-simulator packages. Both migrated their
// lifecycles onto context.Context (cancellation, deadlines, and
// context.AfterFunc for connection teardown); a fresh stop channel named
// stop/quit/halt/kill/done reintroduces the pre-migration pattern.
func runStopchan(pc *pkgChecker) {
	if !stopchanPackages[pc.pkg.RelPath] {
		return
	}
	info := pc.pkg.Info
	lhsName := func(e ast.Expr) string {
		switch e := e.(type) {
		case *ast.Ident:
			return e.Name
		case *ast.SelectorExpr:
			return e.Sel.Name
		}
		return ""
	}
	check := func(name string, rhs ast.Expr, pos token.Pos) {
		if !stopchanName(name) {
			return
		}
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			return
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "make" {
			return
		}
		if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
			return
		}
		ch, ok := info.TypeOf(call).Underlying().(*types.Chan)
		if !ok {
			return
		}
		st, ok := ch.Elem().Underlying().(*types.Struct)
		if !ok || st.NumFields() != 0 {
			return
		}
		pc.reportf("stopchan", pos,
			"raw stop channel %s in %s; lifecycles here are context-scoped — accept a ctx and cancel it (or use context.AfterFunc) instead",
			name, pc.pkg.RelPath)
	}
	for _, f := range pc.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i < len(n.Rhs) {
						check(lhsName(lhs), n.Rhs[i], lhs.Pos())
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						check(name.Name, n.Values[i], name.Pos())
					}
				}
			}
			return true
		})
	}
}
