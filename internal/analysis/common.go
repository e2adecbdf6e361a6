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
	replPkgPath    = "spatialjoin/internal/repl"
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
