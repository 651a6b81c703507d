package flatlint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"flattree/internal/parallel"
)

// loadAll parses and type-checks every package in the module. Parsing
// fans out over all packages at once (token.FileSet is safe for
// concurrent use); type-checking proceeds in dependency waves — Kahn's
// algorithm over the module-local import graph — so that every package in
// a wave only imports packages finished in earlier waves, and the waves
// themselves fan out through internal/parallel. The standard-library
// source importer is stateful and is serialized behind Runner.stdMu.
//
// Results land in r.pkgs/r.order. loadAll is idempotent; errors are
// deterministic (parallel.ForEach returns the lowest-indexed failure).
func (r *Runner) loadAll() error {
	if r.pkgs != nil {
		return nil
	}
	paths := r.Packages()
	index := make(map[string]int, len(paths))
	for i, p := range paths {
		index[p] = i
	}

	// Phase 1a: parse every package concurrently.
	type parsedPkg struct {
		files, tests []*ast.File
		deps         []int // indices of module-local imports, deduplicated
	}
	parsedPkgs := make([]parsedPkg, len(paths))
	err := parallel.ForEach(len(paths), 0, func(i int) error {
		files, tests, err := r.parseDir(r.pkgDirs[paths[i]])
		if err != nil {
			return err
		}
		seen := make(map[int]bool)
		var deps []int
		for _, f := range files {
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				j, ok := index[path]
				if !ok || seen[j] {
					continue // std-lib, unknown (type checker will report), or dup
				}
				seen[j] = true
				deps = append(deps, j)
			}
		}
		sort.Ints(deps)
		parsedPkgs[i] = parsedPkg{files: files, tests: tests, deps: deps}
		return nil
	})
	if err != nil {
		return err
	}

	// Phase 1b: type-check in dependency waves.
	indeg := make([]int, len(paths))
	dependents := make([][]int, len(paths))
	for i := range parsedPkgs {
		for _, j := range parsedPkgs[i].deps {
			indeg[i]++
			dependents[j] = append(dependents[j], i)
		}
	}
	var wave []int
	for i, d := range indeg {
		if d == 0 {
			wave = append(wave, i)
		}
	}
	r.pkgs = make(map[string]*Pkg, len(paths))
	done := 0
	for len(wave) > 0 {
		slots := make([]*Pkg, len(wave))
		cur := wave
		err := parallel.ForEach(len(cur), 0, func(i int) error {
			pkg, err := r.typeCheck(paths[cur[i]], parsedPkgs[cur[i]].files)
			if err != nil {
				return err
			}
			pkg.TestFiles = parsedPkgs[cur[i]].tests
			slots[i] = pkg
			return nil
		})
		if err != nil {
			return err
		}
		// Publish the wave's results sequentially: the next wave's
		// type-checks read r.pkgs concurrently, but never while it is
		// being written.
		wave = nil
		for i, pkg := range slots {
			r.pkgs[paths[cur[i]]] = pkg
			done++
			for _, dep := range dependents[cur[i]] {
				indeg[dep]--
				if indeg[dep] == 0 {
					wave = append(wave, dep)
				}
			}
		}
		sort.Ints(wave)
	}
	if done < len(paths) {
		var stuck []string
		for i, d := range indeg {
			if d > 0 {
				stuck = append(stuck, paths[i])
			}
		}
		sort.Strings(stuck)
		return fmt.Errorf("flatlint: import cycle among %s", strings.Join(stuck, ", "))
	}
	r.order = paths
	return nil
}

// parseDir parses every .go file in dir, in sorted file order, and returns
// the package's files and its _test.go files apart: only the former are
// type-checked, the latter are read for their syntax alone.
func (r *Runner) parseDir(dir string) (files, tests []*ast.File, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		f, err := parser.ParseFile(r.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		if strings.HasSuffix(name, "_test.go") {
			tests = append(tests, f)
		} else {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("flatlint: no buildable Go files in %s", dir)
	}
	return files, tests, nil
}

// typeCheck type-checks one parsed package. All module-local imports must
// already be in r.pkgs (guaranteed by the wave ordering in loadAll).
func (r *Runner) typeCheck(path string, files []*ast.File) (*Pkg, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: r}
	tpkg, err := conf.Check(path, r.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("flatlint: type-checking %s: %w", path, err)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, r.module), "/")
	return &Pkg{
		Path:    path,
		RelPath: rel,
		Dir:     r.pkgDirs[path],
		Files:   files,
		Fset:    r.fset,
		Types:   tpkg,
		Info:    info,
	}, nil
}
