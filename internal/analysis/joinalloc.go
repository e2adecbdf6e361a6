package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// JoinAlloc enforces the allocation discipline of the join executors: in
// the packages that run the synchronized descent and the tuple-at-a-time
// inner loops (core, join, zorder), code nested two or more loops deep
// must neither allocate geometry (a fresh slice, heap escape, or append
// of geom-package values per candidate pair multiplies into O(n·m)
// garbage) nor call into the observability layer (tracing, metrics, and
// flight-recorder emission belong at level and block boundaries, where
// their cost amortizes over a whole frontier — that is what keeps the
// nil-trace path free and the recorder ring from flooding).
// Function literals reset the nesting count: a worker body handed to the
// parallel pool starts its own loop structure.
//
// A tree-descent function — one that iterates a core.Node's children with
// NumChildren/Child — is held to a stricter rule: its outermost loop
// already runs once per node examined, so a slice make at loop depth one or
// deeper is per-node garbage whatever the element type. Scratch slices
// belong outside the loop, truncated and refilled per node.
var JoinAlloc = &Analyzer{
	Name: "joinalloc",
	Doc:  "in the join-executor packages (core, join, zorder), forbid geometry allocation and observability calls inside inner (nested) loops, and any slice make inside the loops of a tree-descent function",
	Run:  runJoinAlloc,
}

// joinAllocPkgs names the executor packages the discipline binds.
var joinAllocPkgs = map[string]bool{"core": true, "join": true, "zorder": true}

// innerLoopDepth is the nesting level at which the checks arm: the body
// of a loop inside a loop.
const innerLoopDepth = 2

func runJoinAlloc(pass *Pass) {
	if !joinAllocPkgs[pass.Pkg.Name()] {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				walkAllocDepth(pass, fd.Body, 0, walksChildren(pass, fd.Body))
			}
		}
	}
}

// walksChildren reports whether body iterates a generalization tree: it
// calls NumChildren or Child on a core.Node (function literals are judged
// on their own).
func walksChildren(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			fn := calleeFunc(pass, v)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != corePkgPath {
				return true
			}
			if fn.Name() != "NumChildren" && fn.Name() != "Child" {
				return true
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if named := namedOf(recv.Type()); named != nil && named.Obj().Name() == "Node" {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// walkAllocDepth traverses n tracking loop-nesting depth. Loop subtrees
// (header and body alike — a header expression re-evaluates per
// iteration) recurse one level deeper; function literals restart at zero.
// descent marks the body of a tree-descent function (see walksChildren).
func walkAllocDepth(pass *Pass, root ast.Node, depth int, descent bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == root {
			return true
		}
		switch v := n.(type) {
		case *ast.FuncLit:
			walkAllocDepth(pass, v.Body, 0, walksChildren(pass, v.Body))
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			walkAllocDepth(pass, v, depth+1, descent)
			return false
		}
		if depth >= innerLoopDepth {
			checkAllocNode(pass, n)
		}
		if descent && depth >= 1 {
			checkDescentMake(pass, n, depth)
		}
		return true
	})
}

// builtinName returns the name of the builtin function call invokes, or ""
// when it calls anything else.
func builtinName(pass *Pass, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

// checkDescentMake reports a slice make inside a loop of a tree-descent
// function. Geometry-backed makes at inner-loop depth already have their
// own diagnostic.
func checkDescentMake(pass *Pass, n ast.Node, depth int) {
	call, ok := n.(*ast.CallExpr)
	if !ok || builtinName(pass, call) != "make" {
		return
	}
	t := pass.TypeOf(call)
	if t == nil {
		return
	}
	if _, isSlice := t.Underlying().(*types.Slice); !isSlice {
		return
	}
	if depth >= innerLoopDepth && geomBacked(t) {
		return
	}
	pass.Reportf(call.Pos(),
		"slice make inside the loop of a tree-descent function allocates once per node examined; hoist the scratch slice out of the loop and refill it per node")
}

// checkAllocNode reports the forbidden shapes at one inner-loop node:
// geometry-backed make/new/append, address-taken or slice-kinded geometry
// composite literals, and any call into the obs package.
func checkAllocNode(pass *Pass, n ast.Node) {
	switch v := n.(type) {
	case *ast.CallExpr:
		if name := builtinName(pass, v); name != "" {
			switch name {
			case "new":
				if len(v.Args) == 1 && geomBacked(pass.TypeOf(v.Args[0])) {
					reportGeomAlloc(pass, v.Pos(), "new of geometry")
				}
			case "make":
				if geomBacked(pass.TypeOf(v)) {
					reportGeomAlloc(pass, v.Pos(), "make of geometry storage")
				}
			case "append":
				if geomBacked(pass.TypeOf(v)) {
					reportGeomAlloc(pass, v.Pos(), "append of geometry values")
				}
			}
			return
		}
		if fn := calleeFunc(pass, v); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == obsPkgPath {
			// The flight recorder gets its own message: Record is wait-free,
			// which tempts per-pair emission — but a per-pair event floods
			// the fixed-size ring and evicts the sparse events (checkpoint
			// marks, state transitions, sheds) a post-incident dump needs.
			if fn.Name() == "Record" {
				pass.Reportf(v.Pos(),
					"flight-recorder emission %s.%s inside a join inner loop; a per-pair event floods the ring — emit at level or block boundaries",
					fn.Pkg().Name(), fn.Name())
				return
			}
			pass.Reportf(v.Pos(),
				"observability call %s.%s inside a join inner loop; hoist tracing and metrics to the level or block boundary so the per-pair path stays free",
				fn.Pkg().Name(), fn.Name())
		}
	case *ast.UnaryExpr:
		if v.Op != token.AND {
			return
		}
		if cl, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok && geomBacked(pass.TypeOf(cl)) {
			reportGeomAlloc(pass, v.Pos(), "heap-escaping geometry literal")
		}
	case *ast.CompositeLit:
		// A value-typed geometry literal is a stack value and stays
		// legal; slice- and map-kinded literals allocate backing storage.
		t := pass.TypeOf(v)
		if t == nil {
			return
		}
		switch t.Underlying().(type) {
		case *types.Slice, *types.Map:
			if geomBacked(t) {
				reportGeomAlloc(pass, v.Pos(), "geometry slice literal")
			}
		}
	}
}

func reportGeomAlloc(pass *Pass, pos token.Pos, what string) {
	pass.Reportf(pos,
		"geometry allocation (%s) inside a join inner loop; hoist the buffer out of the per-pair path or reuse a scratch value",
		what)
}

// geomBacked reports whether t is declared in the geom package, or is a
// slice, array, map, or pointer whose elements ultimately are.
func geomBacked(t types.Type) bool {
	for t != nil {
		if named := namedOf(t); named != nil {
			if named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == geomPkgPath {
				return true
			}
			t = named.Underlying()
			continue
		}
		switch u := t.(type) {
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Pointer:
			t = u.Elem()
		default:
			return false
		}
	}
	return false
}
