package flatlint

import (
	"go/ast"
	"go/token"
)

// skipMethods are the testing.TB methods that end a test without failing
// it.
var skipMethods = map[string]bool{"Skip": true, "Skipf": true, "SkipNow": true}

// runTestskip flags t.Skip, t.Skipf and t.SkipNow in a package's test
// files unless the call sits inside `if testing.Short() { ... }` (a
// condition that is testing.Short() or an && chain holding it). A test
// that skips when its precondition does not hold — "the solve converged
// inside the deadline; nothing to assert" — passes without asserting
// exactly when the code under it gets fast, so it guards nothing. Build an
// input for which the assertion is reachable, and fail otherwise; -short
// is the one reason to skip. Test files are not type-checked, so the rule
// is syntactic: any x.Skip(...) call counts.
func runTestskip(pc *pkgChecker) {
	for _, f := range pc.pkg.TestFiles {
		testing := testingName(f)
		type span struct{ lo, hi token.Pos }
		var guarded []span
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				if testing != "" && shortGuard(n.Cond, testing) {
					guarded = append(guarded, span{n.Body.Pos(), n.Body.End()})
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || !skipMethods[sel.Sel.Name] {
					return true
				}
				for _, g := range guarded {
					if g.lo <= n.Pos() && n.Pos() < g.hi {
						return true
					}
				}
				pc.reportf("testskip", n.Pos(),
					"%s outside a testing.Short() guard passes without asserting; build an input that reaches the assertion and fail otherwise", sel.Sel.Name)
			}
			return true
		})
	}
}

// shortGuard reports whether cond is testing.Short() — the package named
// testing in this file — or an && chain with it as one operand, so the
// guarded block runs only under -short.
func shortGuard(cond ast.Expr, testing string) bool {
	switch c := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		return c.Op == token.LAND && (shortGuard(c.X, testing) || shortGuard(c.Y, testing))
	case *ast.CallExpr:
		sel, ok := c.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Short" || len(c.Args) != 0 {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == testing
	}
	return false
}

// testingName returns the name file f refers to package testing by, or ""
// if f does not import it.
func testingName(f *ast.File) string {
	for _, imp := range f.Imports {
		if imp.Path.Value != `"testing"` {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return "testing"
	}
	return ""
}
