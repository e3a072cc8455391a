package lint

import (
	"fmt"
	"go/token"
	"os"
	"sort"
	"strconv"
	"strings"
)

// loadDirWithDeps parses and type-checks the single package in dir (non-test
// .go files), assigning it asImportPath. Imports are resolved through the go
// tool, so only importable (typically stdlib) dependencies are supported,
// except that an import of a path present in deps resolves to that
// pre-checked package instead of export data. The golden-file tests load
// through it: testdata packages are invisible to `go list ./...` but still
// need real type information, asImportPath lets a testdata package
// impersonate a simulation package, and deps chain testdata packages the go
// tool cannot see (package A checked first, then package B importing A's
// impersonated path).
func loadDirWithDeps(dir, asImportPath string, deps map[string]*Package) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	sort.Strings(names)
	fset := token.NewFileSet()
	files, src, err := parseFiles(fset, dir, names)
	if err != nil {
		return nil, err
	}
	importSet := make(map[string]bool)
	for _, f := range files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return nil, err
			}
			if deps == nil || deps[path] == nil {
				importSet[path] = true
			}
		}
	}
	exports := make(map[string]string)
	if len(importSet) > 0 {
		patterns := make([]string, 0, len(importSet))
		for p := range importSet {
			patterns = append(patterns, p)
		}
		sort.Strings(patterns)
		listed, err := goList(dir, patterns)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" && plainEntry(&p) {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	pkg := &Package{
		ImportPath: asImportPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Src:        src,
	}
	imp := newModuleImporter(fset, exports)
	for path, dep := range deps {
		imp.provide(path, dep.Types)
	}
	pkg.Types, pkg.Info, pkg.TypeErrors = typeCheck(fset, asImportPath, files, imp)
	return pkg, nil
}
