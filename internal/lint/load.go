package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Src        map[string][]byte // filename -> source, for comment classification
	Types      *types.Package
	Info       *types.Info
	TypeErrors []error
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
	Export       string
	DepOnly      bool
	Standard     bool
	ForTest      string
	Module       *struct{ Path string }
	Error        *struct{ Err string }
}

// goList runs `go list -e -export -deps -test -json` in dir over the given
// patterns and returns the package stream. The -test flag materialises the
// test dependency closure, so export data exists for test-only imports.
func goList(dir string, patterns []string) ([]listPkg, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps", "-test",
		"-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles," +
			"Imports,TestImports,XTestImports,Export,DepOnly,Standard,ForTest,Module,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// plainEntry reports whether p is a real package rather than a synthesised
// test variant ("pkg [pkg.test]" recompilations and "pkg.test" mains).
func plainEntry(p *listPkg) bool {
	return p.ForTest == "" &&
		!strings.HasSuffix(p.ImportPath, ".test") &&
		!strings.Contains(p.ImportPath, " [")
}

// moduleImporter resolves imports during source type-checking: in-module
// packages come from the source-checked package table (so every dependent
// shares the same *types.Package and fact lookup works by object identity),
// everything else from compiler export data. Safe for concurrent use.
type moduleImporter struct {
	srcMu sync.RWMutex
	src   map[string]*types.Package

	gcMu sync.Mutex
	gc   types.Importer
}

func newModuleImporter(fset *token.FileSet, exports map[string]string) *moduleImporter {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return &moduleImporter{
		src: make(map[string]*types.Package),
		gc:  importer.ForCompiler(fset, "gc", lookup),
	}
}

// provide registers a source-checked package for later imports.
func (m *moduleImporter) provide(path string, pkg *types.Package) {
	m.srcMu.Lock()
	m.src[path] = pkg
	m.srcMu.Unlock()
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	m.srcMu.RLock()
	pkg := m.src[path]
	m.srcMu.RUnlock()
	if pkg != nil {
		return pkg, nil
	}
	m.gcMu.Lock()
	defer m.gcMu.Unlock()
	return m.gc.Import(path)
}

// parseFiles parses the named files in dir with comments, retaining source
// bytes for the comment-directive index.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, map[string][]byte, error) {
	var files []*ast.File
	src := make(map[string][]byte)
	for _, name := range names {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		f, err := parser.ParseFile(fset, path, data, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
		src[path] = data
	}
	return files, src, nil
}

// typeCheck runs go/types over one package, collecting rather than aborting
// on errors so analysis can proceed on a best-effort basis.
func typeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, []error) {
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, _ := conf.Check(path, fset, files, info) // errors already collected
	return pkg, info, errs
}
