package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Import paths of the packages whose contracts the analyzers enforce.
const (
	rootPkgPath     = "spatialjoin"
	storagePkgPath  = "spatialjoin/internal/storage"
	faultPkgPath    = "spatialjoin/internal/fault"
	walPkgPath      = "spatialjoin/internal/wal"
	parallelPkgPath = "spatialjoin/internal/parallel"
	geomPkgPath     = "spatialjoin/internal/geom"
	corePkgPath     = "spatialjoin/internal/core"
	obsPkgPath      = "spatialjoin/internal/obs"
	replPkgPath     = "spatialjoin/internal/repl"
	atomicPkgPath   = "sync/atomic"
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

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// errorResults returns the indices of signature results typed error.
func errorResults(sig *types.Signature) []int {
	var out []int
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			out = append(out, i)
		}
	}
	return out
}

// checkDiscardedErrors reports every call to a function matched by `match`
// whose error result is silently dropped: the call stands alone as a
// statement (including go/defer), or an error result is assigned to the
// blank identifier.
func checkDiscardedErrors(pass *Pass, match func(fn *types.Func) bool,
	report func(pos token.Pos, fn *types.Func)) {

	// matchedCall resolves a candidate expression to a matched callee with
	// at least one error result.
	matchedCall := func(e ast.Expr) (*ast.CallExpr, *types.Func, []int) {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return nil, nil, nil
		}
		fn := calleeFunc(pass, call)
		if fn == nil || !match(fn) {
			return nil, nil, nil
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return nil, nil, nil
		}
		errs := errorResults(sig)
		if len(errs) == 0 {
			return nil, nil, nil
		}
		return call, fn, errs
	}

	inspectAll(pass, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			if call, fn, _ := matchedCall(stmt.X); call != nil {
				report(call.Pos(), fn)
			}
		case *ast.GoStmt:
			if call, fn, _ := matchedCall(stmt.Call); call != nil {
				report(call.Pos(), fn)
			}
		case *ast.DeferStmt:
			if call, fn, _ := matchedCall(stmt.Call); call != nil {
				report(call.Pos(), fn)
			}
		case *ast.AssignStmt:
			// Multi-value form: lhs... := f(). The error positions of the
			// call line up with the assignment targets.
			if len(stmt.Rhs) == 1 && len(stmt.Lhs) > 1 {
				call, fn, errs := matchedCall(stmt.Rhs[0])
				if call == nil {
					return true
				}
				for _, i := range errs {
					if i < len(stmt.Lhs) && isBlank(stmt.Lhs[i]) {
						report(call.Pos(), fn)
						return true
					}
				}
				return true
			}
			// Parallel form: a, b = f(), g() — single results only.
			for i, rhs := range stmt.Rhs {
				if i >= len(stmt.Lhs) || !isBlank(stmt.Lhs[i]) {
					continue
				}
				if call, fn, _ := matchedCall(rhs); call != nil {
					report(call.Pos(), fn)
				}
			}
		}
		return true
	})
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
