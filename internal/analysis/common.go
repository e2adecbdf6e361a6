package analysis

import (
	"go/ast"
	"go/types"
)

// Import paths of the packages whose contracts the analyzers enforce.
const (
	rootPkgPath    = "spatialjoin"
	storagePkgPath = "spatialjoin/internal/storage"
	faultPkgPath   = "spatialjoin/internal/fault"
	walPkgPath     = "spatialjoin/internal/wal"
	geomPkgPath    = "spatialjoin/internal/geom"
	obsPkgPath     = "spatialjoin/internal/obs"
)

// calleeFunc resolves the statically-called function or method of call,
// or nil for indirect calls through function values.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := pass.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := pass.Info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// namedOf unwraps pointers and aliases down to the defined type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// stmtCall extracts the single call of an expression or assignment
// statement, with the assignment's left-hand sides when present.
func stmtCall(stmt ast.Stmt) (*ast.CallExpr, []ast.Expr) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		call, _ := ast.Unparen(s.X).(*ast.CallExpr)
		return call, nil
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 {
			return nil, nil
		}
		call, _ := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
		return call, s.Lhs
	}
	return nil, nil
}

// identObj resolves an assignment target identifier to its object; blank
// and non-identifier targets yield nil.
func identObj(pass *Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}

// callRecv returns the receiver expression of a selector call.
func callRecv(call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return sel.X
}

// isMethodOf reports whether fn is the named method on the named type
// (through any pointers) of the given package.
func isMethodOf(fn *types.Func, pkgPath, typeName, method string) bool {
	if fn == nil || fn.Name() != method || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := namedOf(sig.Recv().Type())
	return named != nil && named.Obj().Name() == typeName
}

// exprText renders an expression to its canonical source-ish text, the
// textual identity the paired analyzers key resources by.
func exprText(e ast.Expr) string {
	return types.ExprString(e)
}
