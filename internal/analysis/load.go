package analysis

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
	"sort"
	"strconv"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis:
// its non-test files, in file-name order (deterministic across runs).
type Package struct {
	PkgPath string // import path ("mpquic/internal/sim")
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info

	// Built on first use, once per load (annotate.go, confine.go).
	ann   *annotations
	graph *domainGraph
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` in dir over patterns and
// returns the decoded package records. -export compiles every listed
// package (through the build cache) so each record carries the path of
// its type export data, which the gc importer can read directly — the
// whole pipeline needs only the standard toolchain.
func goList(dir string, patterns ...string) ([]listedPkg, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Standard,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list -json decode: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter satisfies types.Importer by reading the gc export
// data files `go list -export` produced.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// newInfo allocates the types.Info maps the analyzers rely on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// parseFiles parses the named files (absolute paths) in file-name
// order with comments retained.
func parseFiles(fset *token.FileSet, names []string) ([]*ast.File, error) {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	files := make([]*ast.File, 0, len(sorted))
	for _, name := range sorted {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// typecheck runs go/types over the parsed files using export data for
// every import.
func typecheck(fset *token.FileSet, pkgPath string, files []*ast.File, exports map[string]string) (*types.Package, *types.Info, error) {
	info := newInfo()
	conf := types.Config{Importer: exportImporter(fset, exports)}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("typecheck %s: %v", pkgPath, err)
	}
	return tpkg, info, nil
}

// Load type-checks the non-test files of every module package matching
// patterns (run relative to root, the module directory) and returns
// them in import-path order.
func Load(root string, patterns ...string) ([]*Package, error) {
	listed, err := goList(root, patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var roots []listedPkg
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			roots = append(roots, p)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ImportPath < roots[j].ImportPath })
	pkgs := make([]*Package, 0, len(roots))
	for _, p := range roots {
		if len(p.GoFiles) == 0 {
			continue
		}
		fset := token.NewFileSet()
		names := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			names[i] = filepath.Join(p.Dir, f)
		}
		files, err := parseFiles(fset, names)
		if err != nil {
			return nil, err
		}
		tpkg, info, err := typecheck(fset, p.ImportPath, files, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, &Package{
			PkgPath: p.ImportPath, Dir: p.Dir,
			Fset: fset, Files: files, Types: tpkg, Info: info,
		})
	}
	return pkgs, nil
}

// LoadFromDir type-checks the non-test files of the single package in
// dir under the given import path, resolving its imports (standard
// library or module packages) through the module at root. This is how
// the analysistest harness loads testdata packages, which live outside
// the module.
func LoadFromDir(root, dir, pkgPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" && !strings.HasSuffix(e.Name(), "_test.go") {
			names = append(names, filepath.Join(dir, e.Name()))
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	fset := token.NewFileSet()
	files, err := parseFiles(fset, names)
	if err != nil {
		return nil, err
	}
	// Resolve the testdata package's imports through `go list` in the
	// module root: stdlib paths and mpquic/... paths both work there.
	importSet := make(map[string]bool)
	for _, f := range files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return nil, err
			}
			if path != "unsafe" {
				importSet[path] = true
			}
		}
	}
	imports := make([]string, 0, len(importSet))
	for path := range importSet {
		imports = append(imports, path)
	}
	sort.Strings(imports)
	exports := make(map[string]string)
	if len(imports) > 0 {
		listed, err := goList(root, imports...)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	tpkg, info, err := typecheck(fset, pkgPath, files, exports)
	if err != nil {
		return nil, err
	}
	return &Package{PkgPath: pkgPath, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
