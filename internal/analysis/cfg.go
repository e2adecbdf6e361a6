package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// This file is the control-flow layer of the analysis framework: an
// intra-procedural CFG builder over go/ast used by the flow-sensitive
// paired-resource analyzers (lockbalance, spanclose, semrelease,
// txnatomic).
//
// The CFG is statement-granular. Compound statements never appear inside a
// block: if/for/range/switch/type-switch/select are lowered to blocks and
// edges (conditions ride on the edges so a solver can refine state per
// branch), while break/continue — labeled or not — goto, fallthrough,
// return, and panic-shaped calls terminate blocks with explicit transfer
// edges. defer and go statements stay in their blocks as ordinary
// statements; the dataflow solver interprets defers as exit-edge actions
// (they run when a return or panic edge is taken) rather than at their
// syntactic position.

// EdgeKind classifies how control leaves a block.
type EdgeKind uint8

const (
	// EdgeFlow is an ordinary intra-function transfer.
	EdgeFlow EdgeKind = iota
	// EdgeReturn leaves the function normally: an explicit return, falling
	// off the end of the body, or a call that terminates the goroutine in
	// a defer-running way (runtime.Goexit, testing's Fatal/Skip family) or
	// the process (os.Exit, log.Fatal).
	EdgeReturn
	// EdgePanic leaves the function by panicking: an explicit panic(...)
	// call. Deferred calls still run on this edge.
	EdgePanic
)

// String names the kind for CFG dumps and diagnostics.
func (k EdgeKind) String() string {
	switch k {
	case EdgeReturn:
		return "return"
	case EdgePanic:
		return "panic"
	default:
		return "flow"
	}
}

// Edge is one directed control transfer. On a conditional branch Cond is
// the controlling expression: the edge is taken when Cond evaluates to
// !Negate. Unconditional edges (including the unknowable outcomes of
// range/select/switch dispatch) carry a nil Cond.
type Edge struct {
	From, To *Block
	Kind     EdgeKind
	Cond     ast.Expr
	Negate   bool
	// Pos anchors the transfer for diagnostics: the return statement, the
	// panic call, the branch keyword, or the body's closing brace for the
	// implicit return.
	Pos token.Pos
}

// Block is a maximal straight-line statement sequence. Only simple
// statements appear in Stmts (assignments, expression statements, send,
// inc/dec, decl, defer, go, return, and — as a scanning anchor for its
// key/value/operand expressions — the range statement heading a loop).
type Block struct {
	Index int
	Stmts []ast.Stmt
	Succs []*Edge
}

// CFG is the control-flow graph of one function body. Blocks[0] is the
// entry; Exit is a synthetic statement-less block every EdgeReturn and
// EdgePanic edge targets. Blocks with no inbound edges (other than entry)
// are syntactically unreachable code.
type CFG struct {
	Blocks []*Block
	Exit   *Block
}

// cfgBuilder carries the construction state.
type cfgBuilder struct {
	cfg *CFG
	// cur is the block under construction; nil after a terminator, so
	// trailing unreachable statements land in a fresh, edgeless block.
	cur *Block
	// frames is the innermost-last stack of enclosing breakable
	// constructs (loops, switches, selects).
	frames []*cfgFrame
	// labels maps a pending label to the statement it annotates, so the
	// frame of a labeled loop/switch/select can claim it.
	pendingLabel string
	// gotoTargets maps label names to their target blocks; gotosWaiting
	// holds forward gotos to resolve once the label is built.
	gotoTargets  map[string]*Block
	gotosWaiting map[string][]*Edge
}

// cfgFrame is one enclosing break/continue scope.
type cfgFrame struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select frames
}

// BuildCFG lowers one function body to its control-flow graph.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:          &CFG{Exit: &Block{Index: -1}},
		gotoTargets:  make(map[string]*Block),
		gotosWaiting: make(map[string][]*Edge),
	}
	b.cur = b.newBlock()
	b.stmtList(body.List)
	// Falling off the end of the body is an implicit return.
	b.edge(b.cur, b.cfg.Exit, EdgeReturn, nil, false, body.Rbrace)
	// Unresolved gotos (labels in dead code) fall to the exit so the graph
	// stays well formed.
	for _, edges := range b.gotosWaiting {
		for _, e := range edges {
			e.To = b.cfg.Exit
		}
	}
	b.cfg.Exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

// newBlock appends a fresh block to the graph.
func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// edge links from → to. A nil from (terminated path) is a no-op.
func (b *cfgBuilder) edge(from, to *Block, kind EdgeKind, cond ast.Expr, negate bool, pos token.Pos) *Edge {
	if from == nil {
		return nil
	}
	e := &Edge{From: from, To: to, Kind: kind, Cond: cond, Negate: negate, Pos: pos}
	from.Succs = append(from.Succs, e)
	return e
}

// current returns the block under construction, opening an unreachable
// block when the previous statement terminated the path.
func (b *cfgBuilder) current() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

// stmtList lowers a statement sequence.
func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// findFrame resolves a break/continue target: the innermost frame, or the
// frame carrying the label. needContinue restricts the search to loops.
func (b *cfgBuilder) findFrame(label string, needContinue bool) *cfgFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if needContinue && f.continueTo == nil {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

// stmt lowers one statement.
func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// A label is a join point (goto target) ahead of its statement;
		// the immediately-following loop/switch/select claims the label
		// for labeled break/continue.
		target := b.newBlock()
		b.edge(b.cur, target, EdgeFlow, nil, false, s.Pos())
		b.cur = target
		b.gotoTargets[s.Label.Name] = target
		for _, e := range b.gotosWaiting[s.Label.Name] {
			e.To = target
		}
		delete(b.gotosWaiting, s.Label.Name)
		prev := b.pendingLabel
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = prev

	case *ast.ReturnStmt:
		cur := b.current()
		cur.Stmts = append(cur.Stmts, s)
		b.edge(cur, b.cfg.Exit, EdgeReturn, nil, false, s.Pos())
		b.cur = nil

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if f := b.findFrame(label, false); f != nil {
				b.edge(b.current(), f.breakTo, EdgeFlow, nil, false, s.Pos())
			}
			b.cur = nil
		case token.CONTINUE:
			if f := b.findFrame(label, true); f != nil {
				b.edge(b.current(), f.continueTo, EdgeFlow, nil, false, s.Pos())
			}
			b.cur = nil
		case token.GOTO:
			e := b.edge(b.current(), b.cfg.Exit, EdgeFlow, nil, false, s.Pos())
			if target, ok := b.gotoTargets[label]; ok {
				e.To = target
			} else {
				b.gotosWaiting[label] = append(b.gotosWaiting[label], e)
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled by the switch lowering, which links the case body to
			// its successor; nothing to do at the statement itself.
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.current()
		thenB := b.newBlock()
		b.edge(head, thenB, EdgeFlow, s.Cond, false, s.Cond.Pos())
		join := b.newBlock()
		b.cur = thenB
		b.stmt(s.Body)
		b.edge(b.cur, join, EdgeFlow, nil, false, s.Body.End())
		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(head, elseB, EdgeFlow, s.Cond, true, s.Cond.Pos())
			b.cur = elseB
			b.stmt(s.Else)
			b.edge(b.cur, join, EdgeFlow, nil, false, s.Else.End())
		} else {
			b.edge(head, join, EdgeFlow, s.Cond, true, s.Cond.Pos())
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head, EdgeFlow, nil, false, s.Pos())
		join := b.newBlock()
		body := b.newBlock()
		if s.Cond != nil {
			b.edge(head, body, EdgeFlow, s.Cond, false, s.Cond.Pos())
			b.edge(head, join, EdgeFlow, s.Cond, true, s.Cond.Pos())
		} else {
			b.edge(head, body, EdgeFlow, nil, false, s.Pos())
		}
		// continue targets the post statement's block when there is one.
		contTo := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			contTo = post
		}
		b.pushFrame(&cfgFrame{label: b.takeLabel(), breakTo: join, continueTo: contTo})
		b.cur = body
		b.stmt(s.Body)
		b.popFrame()
		if post != nil {
			b.edge(b.cur, post, EdgeFlow, nil, false, s.Body.End())
			b.cur = post
			b.stmt(s.Post)
			b.edge(b.cur, head, EdgeFlow, nil, false, s.Body.End())
		} else {
			b.edge(b.cur, head, EdgeFlow, nil, false, s.Body.End())
		}
		b.cur = join

	case *ast.RangeStmt:
		head := b.newBlock()
		// The range statement itself anchors the head so solvers can scan
		// its X/Key/Value expressions; its body is lowered separately.
		head.Stmts = append(head.Stmts, s)
		b.edge(b.cur, head, EdgeFlow, nil, false, s.Pos())
		join := b.newBlock()
		body := b.newBlock()
		b.edge(head, body, EdgeFlow, nil, false, s.Pos())
		b.edge(head, join, EdgeFlow, nil, false, s.Pos())
		b.pushFrame(&cfgFrame{label: b.takeLabel(), breakTo: join, continueTo: head})
		b.cur = body
		b.stmt(s.Body)
		b.popFrame()
		b.edge(b.cur, head, EdgeFlow, nil, false, s.Body.End())
		b.cur = join

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			cur := b.current()
			cur.Stmts = append(cur.Stmts, &ast.ExprStmt{X: s.Tag})
		}
		b.switchClauses(s.Body.List, s.End(), false)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Assign != nil {
			b.stmt(s.Assign)
		}
		b.switchClauses(s.Body.List, s.End(), false)

	case *ast.SelectStmt:
		b.selectClauses(s)

	case *ast.ExprStmt:
		cur := b.current()
		cur.Stmts = append(cur.Stmts, s)
		if kind, ok := noReturnCall(s.X); ok {
			b.edge(cur, b.cfg.Exit, kind, nil, false, s.Pos())
			b.cur = nil
		}

	default:
		// Simple statements: assignments, declarations, send, inc/dec,
		// defer, go, empty.
		cur := b.current()
		if _, ok := s.(*ast.EmptyStmt); !ok {
			cur.Stmts = append(cur.Stmts, s)
		}
	}
}

// switchClauses lowers the case list of a (type) switch: dispatch fans out
// from the current block to every case, fallthrough chains case bodies,
// and a missing default adds a skip edge to the join.
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, end token.Pos, _ bool) {
	head := b.current()
	join := b.newBlock()
	b.pushFrame(&cfgFrame{label: b.takeLabel(), breakTo: join})

	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		bodies[i] = b.newBlock()
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(head, bodies[i], EdgeFlow, nil, false, cc.Pos())
	}
	if !hasDefault {
		b.edge(head, join, EdgeFlow, nil, false, end)
	}
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.cur = bodies[i]
		b.stmtList(cc.Body)
		if fallsThrough(cc.Body) && i+1 < len(clauses) {
			b.edge(b.cur, bodies[i+1], EdgeFlow, nil, false, cc.End())
		} else {
			b.edge(b.cur, join, EdgeFlow, nil, false, cc.End())
		}
	}
	b.popFrame()
	b.cur = join
}

// fallsThrough reports whether a case body ends in a fallthrough.
func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// selectClauses lowers a select: each comm clause becomes a branch whose
// first statement is the communication itself (so a solver sees the
// acquire performed by `case ch <- tok:`). A select without a default has
// no skip edge — control blocks until some case fires.
func (b *cfgBuilder) selectClauses(s *ast.SelectStmt) {
	head := b.current()
	join := b.newBlock()
	b.pushFrame(&cfgFrame{label: b.takeLabel(), breakTo: join})
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		body := b.newBlock()
		b.edge(head, body, EdgeFlow, nil, false, cc.Pos())
		b.cur = body
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.edge(b.cur, join, EdgeFlow, nil, false, cc.End())
	}
	b.popFrame()
	b.cur = join
}

// pushFrame/popFrame maintain the break/continue scope stack.
func (b *cfgBuilder) pushFrame(f *cfgFrame) { b.frames = append(b.frames, f) }
func (b *cfgBuilder) popFrame()             { b.frames = b.frames[:len(b.frames)-1] }

// takeLabel consumes the pending label of a labeled statement, so the
// construct being built claims it for labeled break/continue.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// noReturnCall classifies calls that never return to the following
// statement. Resolution is name-based so the CFG builder works without
// type information: the builtin panic (EdgePanic — defers run, callers
// may recover), and the defer-running or process-ending terminators
// runtime.Goexit, os.Exit, log.Fatal*, and testing's Fatal/FailNow/Skip
// family (EdgeReturn).
func noReturnCall(e ast.Expr) (EdgeKind, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return 0, false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			return EdgePanic, true
		}
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		switch {
		case name == "Goexit", name == "FailNow", name == "SkipNow", name == "Skip", name == "Skipf":
			return EdgeReturn, true
		case strings.HasPrefix(name, "Fatal"):
			return EdgeReturn, true
		case name == "Exit":
			if x, ok := fun.X.(*ast.Ident); ok && x.Name == "os" {
				return EdgeReturn, true
			}
		}
	}
	return 0, false
}

// DebugString renders the graph for tests and debugging: one line per
// block, `b<i>[n stmts]: -> b<j>(kind/cond)`; the exit block prints as
// `exit`. Successors are listed in edge order.
func (c *CFG) DebugString() string {
	var sb strings.Builder
	for _, blk := range c.Blocks {
		name := fmt.Sprintf("b%d", blk.Index)
		if blk == c.Exit {
			name = "exit"
		}
		fmt.Fprintf(&sb, "%s[%d]:", name, len(blk.Stmts))
		for _, e := range blk.Succs {
			to := fmt.Sprintf("b%d", e.To.Index)
			if e.To == c.Exit {
				to = "exit"
			}
			ann := ""
			switch {
			case e.Kind == EdgeReturn:
				ann = "/return"
			case e.Kind == EdgePanic:
				ann = "/panic"
			case e.Cond != nil && e.Negate:
				ann = "/F"
			case e.Cond != nil:
				ann = "/T"
			}
			fmt.Fprintf(&sb, " %s%s", to, ann)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// funcBodies yields every function body of the file in source order: each
// declared function or method, and each function literal. Literal bodies
// are analyzed as functions in their own right and are therefore skipped
// when scanning their enclosing body.
func funcBodies(file *ast.File) []funcBody {
	var out []funcBody
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				out = append(out, funcBody{name: n.Name.Name, body: n.Body})
			}
		case *ast.FuncLit:
			out = append(out, funcBody{name: "func literal", body: n.Body})
		}
		return true
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].body.Pos() < out[j].body.Pos() })
	return out
}

// funcBody is one analyzable function: a name for diagnostics and the body.
type funcBody struct {
	name string
	body *ast.BlockStmt
}
