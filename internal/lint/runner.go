package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Analyze loads the packages matching patterns (resolved relative to dir),
// type-checks every in-module package from source in dependency order —
// analyzing independent packages in parallel — and applies the analyzers
// with a shared cross-package fact store. Test files are analyzed too:
// in-package _test.go files as an augmented variant of their package, and
// external test packages (package foo_test) as their own unit, so
// determinism violations in tests are caught like any other.
//
// It returns the findings for the matched packages (dependencies outside
// the pattern set contribute facts but no findings) plus any type-check
// errors encountered. A //paralint:allow directive in a matched package
// that names a running rule and suppresses nothing is a finding; one naming
// "all" is checked only when every rule runs, and one naming no rule is a
// directive finding whatever rules run.
func Analyze(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, []error, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, nil, err
	}

	exports := make(map[string]string)
	modules := make(map[string]*listPkg) // in-module plain entries by import path
	var broken []string
	for i := range listed {
		p := &listed[i]
		if !plainEntry(p) {
			continue
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Standard || p.Module == nil {
			continue
		}
		if p.Error != nil {
			// Dep-only packages are reported too: silently skipping a broken
			// dependency would silently drop its facts, and every analysis
			// depending on them would quietly pass.
			broken = append(broken, fmt.Sprintf("%s: %s", p.ImportPath, p.Error.Err))
			continue
		}
		modules[p.ImportPath] = p
	}
	if len(broken) > 0 {
		return nil, nil, fmt.Errorf("packages failed to load:\n  %s", strings.Join(broken, "\n  "))
	}

	fset := token.NewFileSet()
	imp := newModuleImporter(fset, exports)
	fb := NewFactBase()
	ran := make(map[string]bool, len(analyzers)+1)
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	ran["all"] = len(ran) == len(Analyzers())

	// One unit per analysis: the pure package (source files only, used as
	// the import of every dependent), plus augmented and external test
	// variants for matched packages. Test variants only ever depend on pure
	// units, so the unit graph is acyclic even when test files import
	// packages that import the package under test.
	pures := make(map[string]*analysisUnit, len(modules))
	var units []*analysisUnit
	for path, lp := range modules {
		u := &analysisUnit{kind: unitPure, lp: lp, done: make(chan struct{})}
		pures[path] = u
		units = append(units, u)
	}
	moduleDeps := func(imports []string) []*analysisUnit {
		var deps []*analysisUnit
		for _, imp := range imports {
			if d, ok := pures[imp]; ok {
				deps = append(deps, d)
			}
		}
		return deps
	}
	for path, lp := range modules {
		pure := pures[path]
		pure.deps = moduleDeps(lp.Imports)
		if lp.DepOnly {
			continue
		}
		if len(lp.TestGoFiles) > 0 {
			u := &analysisUnit{kind: unitInTest, lp: lp, done: make(chan struct{})}
			u.deps = append([]*analysisUnit{pure}, moduleDeps(lp.TestImports)...)
			units = append(units, u)
		}
		if len(lp.XTestGoFiles) > 0 {
			u := &analysisUnit{kind: unitXTest, lp: lp, done: make(chan struct{})}
			u.deps = append([]*analysisUnit{pure}, moduleDeps(lp.XTestImports)...)
			units = append(units, u)
		}
	}

	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, u := range units {
		wg.Add(1)
		go func(u *analysisUnit) {
			defer wg.Done()
			defer close(u.done)
			for _, d := range u.deps {
				<-d.done
				if d.err != nil {
					u.err = fmt.Errorf("dependency %s: %v", d.lp.ImportPath, d.err)
					return
				}
			}
			sem <- struct{}{}
			defer func() { <-sem }()
			u.run(fset, imp, fb, analyzers, ran)
		}(u)
	}
	wg.Wait()

	// Deterministic assembly: units sorted by path and variant.
	sort.Slice(units, func(i, j int) bool {
		if units[i].lp.ImportPath != units[j].lp.ImportPath {
			return units[i].lp.ImportPath < units[j].lp.ImportPath
		}
		return units[i].kind < units[j].kind
	})
	var diags []Diagnostic
	var typeErrs []error
	var errs []error
	for _, u := range units {
		if u.err != nil {
			errs = append(errs, fmt.Errorf("%s: %v", u.lp.ImportPath, u.err))
			continue
		}
		diags = append(diags, u.diags...)
		typeErrs = append(typeErrs, u.typeErrs...)
	}
	if len(errs) > 0 {
		return nil, nil, errors.Join(errs...)
	}
	diags = append(diags, finalize(fb, analyzers)...)
	return sortDiags(diags), typeErrs, nil
}

const (
	unitPure = iota
	unitInTest
	unitXTest
)

// analysisUnit is one scheduled type-check + analysis: a package's source
// files, its in-package test augmentation, or its external test package.
type analysisUnit struct {
	kind int
	lp   *listPkg
	deps []*analysisUnit
	done chan struct{}

	pure     *Package // set by pure units, reused by the in-test variant
	diags    []Diagnostic
	typeErrs []error
	err      error
}

func (u *analysisUnit) run(fset *token.FileSet, imp *moduleImporter, fb *FactBase, analyzers []*Analyzer, ran map[string]bool) {
	lp := u.lp
	switch u.kind {
	case unitPure:
		files, src, err := parseFiles(fset, lp.Dir, lp.GoFiles)
		if err != nil {
			u.err = err
			return
		}
		pkg := &Package{ImportPath: lp.ImportPath, Dir: lp.Dir, Fset: fset, Files: files, Src: src}
		pkg.Types, pkg.Info, pkg.TypeErrors = typeCheck(fset, lp.ImportPath, files, imp)
		imp.provide(lp.ImportPath, pkg.Types)
		u.pure = pkg
		u.typeErrs = wrapTypeErrs(lp.ImportPath, pkg.TypeErrors)
		diags, err := runPackage(fb, pkg, analyzers, ran, false, nil)
		if err != nil {
			u.err = err
			return
		}
		if !lp.DepOnly {
			u.diags = diags
		}

	case unitInTest:
		// Augment the already-parsed pure files with the in-package test
		// files and re-check under the same import path; only findings in
		// the test files are kept (the pure pass reported the rest).
		pure := u.deps[0].pure
		testFiles, testSrc, err := parseFiles(fset, lp.Dir, lp.TestGoFiles)
		if err != nil {
			u.err = err
			return
		}
		files := append(append([]*ast.File(nil), pure.Files...), testFiles...)
		src := make(map[string][]byte, len(pure.Src)+len(testSrc))
		only := make(map[string]bool, len(testSrc))
		for name, b := range pure.Src {
			src[name] = b
		}
		for name, b := range testSrc {
			src[name] = b
			only[name] = true
		}
		pkg := &Package{ImportPath: lp.ImportPath, Dir: lp.Dir, Fset: fset, Files: files, Src: src}
		pkg.Types, pkg.Info, pkg.TypeErrors = typeCheck(fset, lp.ImportPath, files, imp)
		u.typeErrs = wrapTypeErrs(lp.ImportPath, pkg.TypeErrors)
		u.diags, u.err = runPackage(fb, pkg, analyzers, ran, true, only)

	case unitXTest:
		files, src, err := parseFiles(fset, lp.Dir, lp.XTestGoFiles)
		if err != nil {
			u.err = err
			return
		}
		path := lp.ImportPath + "_test"
		pkg := &Package{ImportPath: path, Dir: lp.Dir, Fset: fset, Files: files, Src: src}
		pkg.Types, pkg.Info, pkg.TypeErrors = typeCheck(fset, path, files, imp)
		u.typeErrs = wrapTypeErrs(path, pkg.TypeErrors)
		u.diags, u.err = runPackage(fb, pkg, analyzers, ran, true, nil)
	}
}

// wrapTypeErrs prefixes each type-check error with the package that failed,
// so the driver's non-zero exit names it.
func wrapTypeErrs(importPath string, errs []error) []error {
	if len(errs) == 0 {
		return nil
	}
	out := make([]error, len(errs))
	for i, e := range errs {
		out[i] = fmt.Errorf("%s: %v", importPath, e)
	}
	return out
}

// RelPaths rewrites diagnostic filenames relative to base when they are
// inside it, for stable, readable output.
func RelPaths(base string, diags []Diagnostic) {
	if base == "" {
		return
	}
	for i := range diags {
		if rel, err := filepath.Rel(base, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}
}
