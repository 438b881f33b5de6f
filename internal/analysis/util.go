package analysis

import (
	"go/ast"
	"go/types"
)

// moduleIndex maps type-checker function objects back to their syntax
// across every package of a load, which is what the call-graph walks need.
//
// Keys are (package path, receiver-qualified name) strings rather than
// *types.Func identities: a cross-package call site resolves to the
// importer's API-only copy of the callee, a distinct object from the one
// minted when the callee's own package was fully checked. String keys
// make both copies land on the same declaration.
type moduleIndex struct {
	decls map[typeKey]*ast.FuncDecl
	pkgOf map[*ast.FuncDecl]*Package
}

func buildIndex(pkgs []*Package) *moduleIndex {
	idx := &moduleIndex{
		decls: make(map[typeKey]*ast.FuncDecl),
		pkgOf: make(map[*ast.FuncDecl]*Package),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Name == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
					if _, dup := idx.decls[funcKey(obj)]; !dup {
						idx.decls[funcKey(obj)] = fn
					}
					idx.pkgOf[fn] = pkg
				}
			}
		}
	}
	return idx
}

// lookup resolves a (possibly imported-copy) function object to its
// declaration and declaring package, if the load carries its source.
func (idx *moduleIndex) lookup(fn *types.Func) (*ast.FuncDecl, *Package) {
	decl, ok := idx.decls[funcKey(fn)]
	if !ok {
		return nil, nil
	}
	return decl, idx.pkgOf[decl]
}

// staticCallee resolves the function a call statically invokes: a named
// function or a method called on a concrete receiver. Calls through
// interfaces, function values, and struct function fields resolve to nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	// An explicit instantiation — f[T](…), pkg.F[T, U](…) — calls f.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				// Interface method calls have no body to walk.
				if types.IsInterface(sel.Recv()) {
					return nil
				}
				return fn
			}
			return nil
		}
		// Package-qualified call (pkg.Fn).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// walkStack traverses root in source order, calling visit with each node
// and the stack of its ancestors (outermost first). Returning false skips
// the node's children.
func walkStack(root ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !visit(n, stack) {
			return false // children skipped: Inspect sends no nil pop
		}
		stack = append(stack, n)
		return true
	})
}

// funcName renders a function declaration for diagnostics: "Fn" or
// "(*T).Method".
func funcName(fn *ast.FuncDecl, pkg *Package) string {
	if obj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
		if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
			return "(" + types.TypeString(recv.Type(), types.RelativeTo(pkg.Types)) + ")." + fn.Name.Name
		}
	}
	return fn.Name.Name
}

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}
