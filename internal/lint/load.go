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
	"sync/atomic"
)

// Package is one parsed, type-checked module package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	// ann caches the package's parsed //hipo: annotations (see
	// annotations.go); access through Annotations().
	ann *Annotations
}

// ExportData maps import paths to compiled export-data files, as produced
// by `go list -export`. It doubles as the importer lookup for go/types.
type ExportData struct {
	files map[string]string
}

// Lookup satisfies the lookup contract of importer.ForCompiler("gc", ...).
func (e *ExportData) Lookup(path string) (io.ReadCloser, error) {
	f, ok := e.files[path]
	if !ok || f == "" {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(f)
}

// LoadExportData compiles the module rooted at dir and returns the export
// data of every package in its dependency closure (standard library
// included). Test harnesses use it to type-check testdata packages with
// the same importer as real loads.
func LoadExportData(dir string, patterns ...string) (*ExportData, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exp := &ExportData{files: make(map[string]string, len(listed))}
	for _, p := range listed {
		if p.Export != "" {
			exp.files[p.ImportPath] = p.Export
		}
	}
	return exp, nil
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
}

// goList runs `go list -export -deps -json` for the patterns in dir and
// decodes the stream of package objects.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listedPackage
	for dec.More() {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadModuleParallel lists, parses, and type-checks every package of the
// module rooted at dir that matches patterns (e.g. "./..."), resolving all
// imports — standard library and intra-module alike — through compiled
// export data. Only non-test files are loaded, mirroring what `go vet`
// hands a unit checker for the primary package. Parsing and type-checking
// are spread over a pool of workers. The token.FileSet is shared (it synchronizes
// internally), but each worker owns a private gc importer over the shared
// export data: the importer's package cache is a plain map. One
// consequence is deliberate — dependency types materialized by different
// workers are distinct types.Object universes, so whole-program layers
// must never rely on cross-package object identity (callgraph.go keys
// functions by canonical strings for exactly this reason). Package order
// in the result matches the `go list` order regardless of which worker
// finished first.
func LoadModuleParallel(dir string, patterns []string, workers int) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exp := &ExportData{files: make(map[string]string, len(listed))}
	for _, p := range listed {
		if p.Export != "" {
			exp.files[p.ImportPath] = p.Export
		}
	}
	var targets []*listedPackage
	for _, p := range listed {
		if !p.Standard && !p.DepOnly {
			targets = append(targets, p)
		}
	}
	if workers > len(targets) {
		workers = len(targets)
	}
	if workers < 1 {
		workers = 1
	}
	fset := token.NewFileSet()
	pkgs := make([]*Package, len(targets))
	errs := make([]error, len(targets))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			imp := importer.ForCompiler(fset, "gc", exp.Lookup)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(targets) {
					return
				}
				p := targets[i]
				var paths []string
				for _, f := range p.GoFiles {
					paths = append(paths, filepath.Join(p.Dir, f))
				}
				pkg, err := CheckFiles(fset, imp, p.ImportPath, paths)
				if err != nil {
					errs[i] = err
					continue
				}
				pkg.Dir = p.Dir
				pkgs[i] = pkg
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// CheckFiles parses the named files and type-checks them as one package
// with the given import path, resolving imports through imp.
func CheckFiles(fset *token.FileSet, imp types.Importer, importPath string, paths []string) (*Package, error) {
	var files []*ast.File
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %v", path, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// CheckDir type-checks every .go file directly inside dir as one package.
// It is the loader used by the analyzer tests on testdata trees, which are
// invisible to the go tool. Imports resolve through imp, so testdata may
// import any package the surrounding module (or its dependency closure)
// already compiles.
func CheckDir(fset *token.FileSet, imp types.Importer, importPath, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	pkg, err := CheckFiles(fset, imp, importPath, paths)
	if err != nil {
		return nil, err
	}
	pkg.Dir = dir
	return pkg, nil
}
