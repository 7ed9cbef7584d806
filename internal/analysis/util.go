package analysis

import (
	"go/ast"
	"go/types"
)

// Well-known package paths the analyzers reason about.
const (
	perfPkgPath = "mpquic/internal/perf"
	livePkgPath = "mpquic/internal/live"
)

// pkgFunc reports whether call invokes the function fn from the
// package with import path pkgPath (e.g. time.Now, time.Sleep).
// It resolves through the type checker, so aliased imports are seen.
func pkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, fn string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != fn {
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	if _, isFunc := obj.(*types.Func); !isFunc {
		return false
	}
	// A package-level function: the selector base is a package name.
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := info.Uses[id].(*types.PkgName); !isPkg {
			return false
		}
	}
	return obj.Pkg().Path() == pkgPath
}

// namedFromPkg reports whether t (after pointer indirection) is the
// named type pkgPath.name.
func namedFromPkg(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// ifaceMethodNamed reports whether call invokes a method with one of
// the given names on an interface-typed receiver. Interface dispatch
// hides the concrete type from methodOn, so blocking-by-shape checks
// (a UDP read behind live.UDPConn) use the method name instead.
func ifaceMethodNamed(info *types.Info, call *ast.CallExpr, methods ...string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	recv := selection.Recv()
	if recv == nil {
		return false
	}
	if _, isIface := recv.Underlying().(*types.Interface); !isIface {
		return false
	}
	for _, m := range methods {
		if sel.Sel.Name == m {
			return true
		}
	}
	return false
}

// methodOn reports whether call is a method call whose receiver's type
// is named recvName in package pkgPath (pointer or value receiver).
// When methods is non-empty the method name must be one of them.
func methodOn(info *types.Info, call *ast.CallExpr, pkgPath, recvName string, methods ...string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	if !namedFromPkg(selection.Recv(), pkgPath, recvName) {
		return false
	}
	if len(methods) == 0 {
		return true
	}
	for _, m := range methods {
		if sel.Sel.Name == m {
			return true
		}
	}
	return false
}

// identObj resolves an identifier expression (possibly parenthesized)
// to its object, or nil.
func identObj(info *types.Info, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// usesObject reports whether any identifier under n resolves to obj.
func usesObject(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		if id, ok := c.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// funcBodies yields every function or method body in the file,
// including function literals, as (node containing the body, body).
func funcBodies(f *ast.File, visit func(ast.Node, *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				visit(fn, fn.Body)
			}
		case *ast.FuncLit:
			visit(fn, fn.Body)
		}
		return true
	})
}
