package flatlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// testSupport are the packages testonly exempts: the exact oracle the
// tests check the solver against, and the LP it solves with. Root
// TestOraclesStayInTests keeps them out of every non-test import.
var testSupport = map[string]bool{"internal/oracle": true, "internal/lp": true}

// testonly keeps library code from outliving its last product caller. A
// function declared under internal/, exported or not, that no root of the
// product reaches — through any chain of calls and references — is kept
// alive by tests alone: it belongs in a _test.go file of its package, or
// nowhere. The roots are every function of a package main (cmd/,
// examples/, benchmark/), init functions, package-level variable
// initializers, and methods that satisfy an interface: those are reached
// through the interface (String, Error, heap.Interface, routing.Scheme,
// ...), which a syntactic reference scan cannot see. A reference is any
// use of a function, call or value, so handlers stored in tables and
// method values count; a function referring to itself does not reach
// itself. The test support packages ship in no binary by design and are
// exempt; every other package is checked, whether a main links it or not.
// A function the product does not reach but that must stay beside it
// carries a reasoned directive.
func runTestonly(pc *pkgChecker) {
	if testSupport[pc.pkg.RelPath] {
		return
	}
	for _, f := range pc.pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pc.pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok || pc.prog.reached[fn] {
				continue
			}
			pc.reportf("testonly", fd.Name.Pos(),
				"%s is reached by no main, init or package variable, only by tests; move it into a _test.go file, delete it, or justify it with a directive",
				pc.prog.shortName(fn))
		}
	}
}

// indexRefs computes which module functions the product reaches. One walk
// over every declaration records the functions it references (outside its
// own body) and every interface type the module's code mentions — the
// types of its expressions, objects, and the parameters and results of the
// functions it uses — indexed by method name. A reachability pass from the
// roots (see runTestonly) over those references then marks reached, and
// the import closure of the main packages marks shipped.
func (p *program) indexRefs(r *Runner) {
	p.ifaces = make(map[string][]*types.Interface)
	seen := make(map[types.Type]bool)
	for _, t := range dynamicInterfaces() {
		p.collectIfaces(t, seen)
	}
	refs := make(map[*types.Func][]*types.Func)
	var roots, methods []*types.Func
	for _, path := range r.order {
		pkg := r.pkgs[path]
		main := pkg.Types.Name() == "main"
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				var self *types.Func
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self, _ = pkg.Info.Defs[fd.Name].(*types.Func)
					if self == nil {
						continue
					}
					if main || (fd.Recv == nil && fd.Name.Name == "init") {
						roots = append(roots, self)
					} else if fd.Recv != nil {
						methods = append(methods, self)
					}
				}
				var uses []*types.Func
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							uses = append(uses, fn.Origin())
						}
					}
					return true
				})
				if self == nil {
					roots = append(roots, uses...) // a package-level initializer
				} else {
					refs[self] = append(refs[self], uses...)
				}
			}
		}
		for _, tv := range pkg.Info.Types {
			p.collectIfaces(tv.Type, seen)
		}
		for _, obj := range pkg.Info.Uses {
			p.collectIfaces(obj.Type(), seen)
		}
		for _, obj := range pkg.Info.Defs {
			if obj != nil {
				p.collectIfaces(obj.Type(), seen)
			}
		}
	}
	for _, m := range methods {
		if p.satisfiesInterface(m) {
			roots = append(roots, m)
		}
	}
	p.reached = make(map[*types.Func]bool)
	for len(roots) > 0 {
		fn := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if !p.reached[fn] {
			p.reached[fn] = true
			roots = append(roots, refs[fn]...)
		}
	}

}

// dynamicInterfaces are the interfaces the standard library asserts at
// run time without the caller naming them: error, fmt.Stringer, and the
// errors.Unwrap forms.
func dynamicInterfaces() []types.Type {
	str := types.Typ[types.String]
	errT := types.Universe.Lookup("error").Type()
	method := func(name string, result types.Type) *types.Interface {
		sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", result)), false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	return []types.Type{errT, method("String", str), method("Unwrap", errT), method("Unwrap", types.NewSlice(errT))}
}

// collectIfaces adds every interface type reachable from t through
// pointers, containers and signatures. Named non-interface types are not
// entered: their method sets are not references.
func (p *program) collectIfaces(t types.Type, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named, *types.Alias:
		if it, ok := t.Underlying().(*types.Interface); ok {
			p.addIface(it)
		}
	case *types.Interface:
		p.addIface(u)
	case *types.Pointer:
		p.collectIfaces(u.Elem(), seen)
	case *types.Slice:
		p.collectIfaces(u.Elem(), seen)
	case *types.Array:
		p.collectIfaces(u.Elem(), seen)
	case *types.Chan:
		p.collectIfaces(u.Elem(), seen)
	case *types.Map:
		p.collectIfaces(u.Key(), seen)
		p.collectIfaces(u.Elem(), seen)
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			p.collectIfaces(u.At(i).Type(), seen)
		}
	case *types.Signature:
		p.collectIfaces(u.Params(), seen)
		p.collectIfaces(u.Results(), seen)
	}
}

func (p *program) addIface(it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		p.ifaces[name] = append(p.ifaces[name], it)
	}
}

// satisfiesInterface reports whether fn is a method through which its
// receiver type (or a pointer to it) satisfies an indexed interface.
func (p *program) satisfiesInterface(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	for _, it := range p.ifaces[fn.Name()] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}
