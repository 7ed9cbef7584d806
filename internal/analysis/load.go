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
)

// A Package is one loaded, type-checked package ready for analysis:
// its non-test files, in file-name order (deterministic across runs).
type Package struct {
	PkgPath string // import path ("mpquic/internal/sim")
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info

	// Built on first use, once per load (annotate.go, confine.go).
	ann   *annotations
	graph *reachGraph
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
	listed, exports, err := listExports(root, patterns...)
	if err != nil {
		return nil, err
	}
	var roots []listedPkg
	for _, p := range listed {
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			roots = append(roots, p)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ImportPath < roots[j].ImportPath })
	pkgs := make([]*Package, 0, len(roots))
	for _, p := range roots {
		pkg, err := check(p, p.ImportPath, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadFromDir type-checks the non-test files of the single package in
// dir under the given import path, resolving its imports (standard
// library or module packages) through the module at root. This is how
// the analysistest harness loads testdata packages, which `./...`
// patterns skip.
func LoadFromDir(root, dir, pkgPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	listed, exports, err := listExports(root, abs)
	if err != nil {
		return nil, err
	}
	for _, p := range listed {
		if p.Dir == abs {
			return check(p, pkgPath, exports)
		}
	}
	return nil, fmt.Errorf("go list did not list %s", dir)
}

// listExports runs goList and maps each listed import path to its
// export data file.
func listExports(root string, patterns ...string) ([]listedPkg, map[string]string, error) {
	listed, err := goList(root, patterns...)
	if err != nil {
		return nil, nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return listed, exports, nil
}

// check parses and type-checks the non-test files of a listed package
// under the import path pkgPath.
func check(p listedPkg, pkgPath string, exports map[string]string) (*Package, error) {
	if len(p.GoFiles) == 0 {
		return nil, fmt.Errorf("no .go files in %s", p.Dir)
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
	tpkg, info, err := typecheck(fset, pkgPath, files, exports)
	if err != nil {
		return nil, err
	}
	return &Package{PkgPath: pkgPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
