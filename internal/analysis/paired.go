package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// This file is the reusable paired-resource dataflow solver built on the
// CFG of cfg.go: "an acquire on an entry edge implies a release on every
// exit edge". Analyzers describe one discipline with a PairSpec — how to
// recognize acquires (optionally guarded by an error result, so the
// resource is only held on the success path) and releases — and the solver
// runs a forward fixpoint over each function's CFG:
//
//   - state is the set of held resources plus the set of registered defer
//     statements; defers are interpreted as exit-edge actions, running on
//     both return and panic edges;
//   - branch conditions refine error-guarded acquires: on the edge where
//     `err != nil` holds the acquisition failed and the resource is
//     dropped, on the opposite edge it is definitely held;
//   - at merge points held-sets join (held on either path counts as held),
//     so a resource released on only one arm is still reported at exit;
//   - a resource whose handle escapes the function (returned, stored, or
//     captured by a closure the solver cannot see run) stops being
//     tracked: ownership moved somewhere an intra-procedural analysis
//     cannot follow.
//
// After the fixpoint converges a single deterministic reporting pass
// replays every reachable block and emits the first unbalanced path per
// acquire site: the acquire position plus the return/panic that leaks it.

// ResKey identifies one resource within a function: a canonical expression
// text (mutex receivers, semaphore channels, pool/page pairs) or a
// handle's types.Object (span IDs), whichever the spec binds.
type ResKey struct {
	Text string
	Obj  types.Object
}

// AcqOp is one acquisition a spec recognized in a statement.
type AcqOp struct {
	Key  ResKey
	Pos  token.Pos
	Desc string // human phrasing for diagnostics, e.g. `db.mu.Lock()`
	// ErrObj, when non-nil, is the error variable guarding the acquire:
	// the resource is held only where this error is nil.
	ErrObj types.Object
	// ValueObj, when non-nil, is the local the acquired handle is bound
	// to; returning it transfers ownership, and other escapes stop
	// tracking (see PairSpec.ValueEscapes).
	ValueObj types.Object
}

// RelOp is one release a spec recognized at a node.
type RelOp struct {
	Key ResKey
	Pos token.Pos
}

// PairSpec describes one acquire/release discipline for the solver.
type PairSpec struct {
	// Acquires returns the acquisitions performed directly by stmt (not
	// inside nested function literals).
	Acquires func(pass *Pass, stmt ast.Stmt) []AcqOp
	// Releases returns the releases performed by a single expression-level
	// node. The solver applies it to every node of straight-line
	// statements, to deferred calls when an exit edge is taken, and — with
	// GoReleases — to the bodies of spawned goroutines.
	Releases func(pass *Pass, n ast.Node) []RelOp
	// ValueEscapes, for acquires carrying a ValueObj, reports whether the
	// given use of the handle moves ownership beyond this function's view.
	// A nil callback disables escape analysis.
	ValueEscapes func(pass *Pass, id *ast.Ident, stack []ast.Node) bool

	// Reentrant counts nested acquires of one key (admission tokens) instead of
	// flagging them.
	Reentrant bool
	// ReportDoubleAcquire flags an acquire of an already-held key
	// (double-lock self-deadlock) on non-reentrant specs.
	ReportDoubleAcquire bool
	// ReportUnmatchedRelease flags a release of a key held on no path.
	ReportUnmatchedRelease bool
	// GoReleases treats a `go func(){...}()` whose body releases a held
	// key as transferring the resource to the goroutine. With
	// GoReleaseMustDefer, a transfer whose release is not under a defer is
	// additionally reported: a panic in the goroutine leaks the resource.
	GoReleases         bool
	GoReleaseMustDefer bool

	// Leakf formats the exit report; exit is the resolved position of the
	// leaking return/panic edge.
	Leakf func(a AcqOp, kind EdgeKind, exit token.Position) string
	// Doublef formats the double-acquire report (optional).
	Doublef func(a AcqOp) string
	// Unmatchedf formats the unmatched-release report (optional).
	Unmatchedf func(r RelOp) string
	// GoNoDeferf formats the non-deferred-goroutine-release report
	// (optional).
	GoNoDeferf func(r RelOp) string
}

// heldCountCap bounds the per-key count so the state lattice stays finite
// (an acquire loop converges instead of counting forever).
const heldCountCap = 8

// heldInfo is the tracked state of one held resource.
type heldInfo struct {
	acq    AcqOp
	count  int
	errObj types.Object // non-nil while success is still unknown
}

// pairState is the dataflow fact: held resources and registered defers.
type pairState struct {
	held   map[ResKey]heldInfo
	defers map[ast.Stmt]bool
}

func newPairState() *pairState {
	return &pairState{held: map[ResKey]heldInfo{}, defers: map[ast.Stmt]bool{}}
}

func (s *pairState) clone() *pairState {
	c := newPairState()
	for k, v := range s.held {
		c.held[k] = v
	}
	for d := range s.defers {
		c.defers[d] = true
	}
	return c
}

func (s *pairState) equal(o *pairState) bool {
	if len(s.held) != len(o.held) || len(s.defers) != len(o.defers) {
		return false
	}
	for k, v := range s.held {
		w, ok := o.held[k]
		if !ok || v != w {
			return false
		}
	}
	for d := range s.defers {
		if !o.defers[d] {
			return false
		}
	}
	return true
}

// join merges o into s (in place): held on either path counts as held, the
// earliest acquire position wins, and conditionality survives only when
// both sides agree on the guard.
func (s *pairState) join(o *pairState) {
	for k, w := range o.held {
		v, ok := s.held[k]
		if !ok {
			s.held[k] = w
			continue
		}
		if w.count > v.count {
			v.count = w.count
		}
		if w.acq.Pos < v.acq.Pos {
			v.acq = w.acq
		}
		if v.errObj != w.errObj {
			v.errObj = nil
		}
		s.held[k] = v
	}
	for d := range o.defers {
		s.defers[d] = true
	}
}

// solver runs one PairSpec over one function body.
type solver struct {
	pass      *Pass
	spec      *PairSpec
	cfg       *CFG
	untracked map[token.Pos]bool // acquire sites disabled by escape analysis
	reported  map[token.Pos]bool // dedupe: one report per site
}

// runPaired applies the spec to every function body of the package.
func runPaired(pass *Pass, spec *PairSpec) {
	for _, file := range pass.Files {
		for _, fb := range funcBodies(file) {
			(&solver{pass: pass, spec: spec}).solve(fb)
		}
	}
}

func (sv *solver) solve(fb funcBody) {
	sv.cfg = BuildCFG(fb.body)
	sv.untracked = map[token.Pos]bool{}
	sv.reported = map[token.Pos]bool{}
	sv.scanEscapes(fb.body)

	// Forward fixpoint over the reachable blocks.
	in := map[*Block]*pairState{sv.cfg.Blocks[0]: newPairState()}
	work := []*Block{sv.cfg.Blocks[0]}
	steps, maxSteps := 0, 64*len(sv.cfg.Blocks)+256
	for len(work) > 0 {
		if steps++; steps > maxSteps {
			return // pathological shape: stay silent rather than wrong
		}
		b := work[len(work)-1]
		work = work[:len(work)-1]
		out := sv.transfer(b, in[b].clone(), false)
		for _, e := range b.Succs {
			if e.To == sv.cfg.Exit {
				continue
			}
			next := sv.applyEdge(out.clone(), e)
			if prev, ok := in[e.To]; !ok {
				in[e.To] = next
				work = append(work, e.To)
			} else {
				merged := prev.clone()
				merged.join(next)
				if !merged.equal(prev) {
					in[e.To] = merged
					work = append(work, e.To)
				}
			}
		}
	}

	// Deterministic reporting pass over the converged states, block order.
	blocks := make([]*Block, 0, len(in))
	for b := range in {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Index < blocks[j].Index })
	for _, b := range blocks {
		out := sv.transfer(b, in[b].clone(), true)
		for _, e := range b.Succs {
			if e.To != sv.cfg.Exit {
				continue
			}
			sv.checkExit(out.clone(), e)
		}
	}
}

// scanEscapes disables tracking of acquire sites whose handle object the
// spec judges to escape. The defining identifier itself is not a use.
func (sv *solver) scanEscapes(body *ast.BlockStmt) {
	if sv.spec.ValueEscapes == nil {
		return
	}
	// Handle object → acquire positions bound to it.
	objSites := map[types.Object][]token.Pos{}
	for _, b := range sv.cfg.Blocks {
		for _, st := range b.Stmts {
			for _, a := range sv.spec.Acquires(sv.pass, st) {
				if a.ValueObj != nil {
					objSites[a.ValueObj] = append(objSites[a.ValueObj], a.Pos)
				}
			}
		}
	}
	if len(objSites) == 0 {
		return
	}
	walkWithStack(body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := sv.pass.Info.Uses[id]
		if obj == nil {
			return true
		}
		sites, tracked := objSites[obj]
		if !tracked {
			return true
		}
		if sv.spec.ValueEscapes(sv.pass, id, stack) {
			for _, pos := range sites {
				sv.untracked[pos] = true
			}
		}
		return true
	})
}

// transfer interprets one block's statements over state. With report set
// (the post-fixpoint pass) it emits double-acquire, unmatched-release, and
// goroutine-release diagnostics.
func (sv *solver) transfer(b *Block, st *pairState, report bool) *pairState {
	for _, stmt := range b.Stmts {
		switch s := stmt.(type) {
		case *ast.DeferStmt:
			st.defers[s] = true
			continue
		case *ast.GoStmt:
			if sv.spec.GoReleases {
				sv.goStmt(s, st, report)
				continue
			}
		case *ast.ReturnStmt:
			// Returning the handle transfers ownership to the caller.
			for _, res := range s.Results {
				if id, ok := ast.Unparen(res).(*ast.Ident); ok {
					if obj := sv.pass.Info.Uses[id]; obj != nil {
						for k, v := range st.held {
							if v.acq.ValueObj == obj {
								delete(st.held, k)
							}
						}
					}
				}
			}
		case *ast.AssignStmt:
			// Overwriting a guard error decouples it from its acquire:
			// treat the resource as unconditionally held from here on.
			sv.promoteReassignedGuards(s, st)
		}

		// Releases anywhere in the statement's expressions.
		scanStmtNodes(stmt, func(n ast.Node) {
			for _, r := range sv.spec.Releases(sv.pass, n) {
				sv.release(r, st, report)
			}
		})
		// Acquires recognized at statement level.
		for _, a := range sv.spec.Acquires(sv.pass, stmt) {
			if sv.untracked[a.Pos] {
				continue
			}
			sv.acquire(a, st, report)
		}
	}
	return st
}

// acquire folds one acquisition into the state.
func (sv *solver) acquire(a AcqOp, st *pairState, report bool) {
	v, ok := st.held[a.Key]
	if !ok {
		st.held[a.Key] = heldInfo{acq: a, count: 1, errObj: a.ErrObj}
		return
	}
	if !sv.spec.Reentrant {
		if report && sv.spec.ReportDoubleAcquire && sv.spec.Doublef != nil && !sv.reported[a.Pos] {
			sv.reported[a.Pos] = true
			sv.pass.Reportf(a.Pos, "%s", sv.spec.Doublef(a))
		}
		return
	}
	if a.ErrObj != nil {
		// A second, error-guarded acquire of an already-held key cannot be
		// tracked precisely (the state carries one guard per key): leave
		// the count alone rather than risk counting a failed acquire.
		return
	}
	if v.count < heldCountCap {
		v.count++
	}
	st.held[a.Key] = v
}

// release folds one release into the state.
func (sv *solver) release(r RelOp, st *pairState, report bool) {
	v, ok := st.held[r.Key]
	if !ok {
		if report && sv.spec.ReportUnmatchedRelease && sv.spec.Unmatchedf != nil && !sv.reported[r.Pos] {
			sv.reported[r.Pos] = true
			sv.pass.Reportf(r.Pos, "%s", sv.spec.Unmatchedf(r))
		}
		return
	}
	if v.count--; v.count <= 0 {
		delete(st.held, r.Key)
	} else {
		st.held[r.Key] = v
	}
}

// goStmt hands held resources to a spawned goroutine that releases them.
// The release must sit under a defer to survive a panic in the goroutine.
func (sv *solver) goStmt(g *ast.GoStmt, st *pairState, report bool) {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	walkWithStack(lit.Body, func(n ast.Node, stack []ast.Node) bool {
		for _, r := range sv.spec.Releases(sv.pass, n) {
			if _, held := st.held[r.Key]; !held {
				continue
			}
			deferred := false
			for _, anc := range stack {
				if _, ok := anc.(*ast.DeferStmt); ok {
					deferred = true
					break
				}
			}
			if !deferred && sv.spec.GoReleaseMustDefer && sv.spec.GoNoDeferf != nil &&
				report && !sv.reported[r.Pos] {
				sv.reported[r.Pos] = true
				sv.pass.Reportf(r.Pos, "%s", sv.spec.GoNoDeferf(r))
			}
			sv.release(r, st, false)
		}
		return true
	})
}

// promoteReassignedGuards clears the error guard of held resources whose
// guard variable this statement overwrites with something else.
func (sv *solver) promoteReassignedGuards(s *ast.AssignStmt, st *pairState) {
	// The acquiring statement itself installs the guard after this hook
	// runs, so only later reassignments are seen here.
	for _, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := sv.pass.Info.Uses[id]
		if obj == nil {
			obj = sv.pass.Info.Defs[id]
		}
		if obj == nil {
			continue
		}
		for k, v := range st.held {
			if v.errObj == obj {
				v.errObj = nil
				st.held[k] = v
			}
		}
	}
}

// applyEdge refines error-guarded resources along a conditional edge.
func (sv *solver) applyEdge(st *pairState, e *Edge) *pairState {
	if e.Cond == nil {
		return st
	}
	for k, v := range st.held {
		if v.errObj == nil {
			continue
		}
		switch errVerdict(sv.pass, e.Cond, e.Negate, v.errObj) {
		case errFailed:
			delete(st.held, k)
		case errSucceeded:
			v.errObj = nil
			st.held[k] = v
		}
	}
	return st
}

// checkExit applies the registered defers and reports what stays held.
func (sv *solver) checkExit(st *pairState, e *Edge) {
	// Deferred actions run on both return and panic edges. A deferred
	// release retires its key entirely (set semantics: a defer registered
	// in a loop still runs for each registration).
	defers := make([]ast.Stmt, 0, len(st.defers))
	for d := range st.defers {
		defers = append(defers, d)
	}
	sort.Slice(defers, func(i, j int) bool { return defers[i].Pos() < defers[j].Pos() })
	for _, d := range defers {
		ds := d.(*ast.DeferStmt)
		walkInvoked(ds.Call, func(n ast.Node) {
			for _, r := range sv.spec.Releases(sv.pass, n) {
				delete(st.held, r.Key)
			}
		})
	}
	if len(st.held) == 0 {
		return
	}
	keys := make([]ResKey, 0, len(st.held))
	for k := range st.held {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return st.held[keys[i]].acq.Pos < st.held[keys[j]].acq.Pos })
	exit := sv.pass.Fset.Position(e.Pos)
	exit.Filename = filepath.Base(exit.Filename)
	for _, k := range keys {
		v := st.held[k]
		if sv.reported[v.acq.Pos] {
			continue
		}
		sv.reported[v.acq.Pos] = true
		sv.pass.Reportf(v.acq.Pos, "%s", sv.spec.Leakf(v.acq, e.Kind, exit))
	}
}

// --- condition interpretation -------------------------------------------

type errOutcome uint8

const (
	errUnknown errOutcome = iota
	errFailed             // the guard error is definitely non-nil here
	errSucceeded
)

// errVerdict interprets cond (taken when it evaluates to !negate) for the
// guard variable errObj: definitely failed, definitely succeeded, or
// unknown. Handles err ==/!= nil directly and through &&/|| conjuncts
// whose truth the edge pins down.
func errVerdict(pass *Pass, cond ast.Expr, negate bool, errObj types.Object) errOutcome {
	cond = ast.Unparen(cond)
	if bin, ok := cond.(*ast.BinaryExpr); ok {
		switch bin.Op {
		case token.NEQ, token.EQL:
			id, hasNil := nilComparison(pass, bin)
			if id == nil || pass.Info.Uses[id] != errObj || !hasNil {
				return errUnknown
			}
			// truth of `err != nil` on this edge:
			nonNil := (bin.Op == token.NEQ) != negate
			if nonNil {
				return errFailed
			}
			return errSucceeded
		case token.LAND:
			if !negate { // whole conjunction true → each conjunct true
				if v := errVerdict(pass, bin.X, false, errObj); v != errUnknown {
					return v
				}
				return errVerdict(pass, bin.Y, false, errObj)
			}
		case token.LOR:
			if negate { // whole disjunction false → each disjunct false
				if v := errVerdict(pass, bin.X, true, errObj); v != errUnknown {
					return v
				}
				return errVerdict(pass, bin.Y, true, errObj)
			}
		}
	}
	return errUnknown
}

// nilComparison extracts the identifier compared against nil, if any.
func nilComparison(pass *Pass, bin *ast.BinaryExpr) (*ast.Ident, bool) {
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	if isNilIdent(y) {
		id, _ := x.(*ast.Ident)
		return id, true
	}
	if isNilIdent(x) {
		id, _ := y.(*ast.Ident)
		return id, true
	}
	return nil, false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// --- AST walking helpers -------------------------------------------------

// scanStmtNodes visits the expression-level nodes of one block statement,
// skipping function-literal bodies (they are separate functions) and, for
// the range statement anchoring a loop head, visiting only its
// key/value/operand expressions.
func scanStmtNodes(s ast.Stmt, f func(ast.Node)) {
	switch s := s.(type) {
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{s.Key, s.Value, s.X} {
			if e != nil {
				walkShallow(e, f)
			}
		}
	case *ast.DeferStmt, *ast.GoStmt:
		// Interpreted by the solver itself.
	default:
		walkShallow(s, f)
	}
}

// walkShallow visits n and its children without entering function-literal
// bodies.
func walkShallow(n ast.Node, f func(ast.Node)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		f(n)
		return true
	})
}

// walkInvoked visits n and its children, entering a function literal's
// body only where the literal demonstrably runs: called directly,
// deferred, or spawned. Used to interpret deferred calls, whose nested
// defers also run when the outer deferred function does.
func walkInvoked(n ast.Node, f func(ast.Node)) {
	var walk func(ast.Node)
	invoked := map[*ast.FuncLit]bool{}
	markInvoked := func(fun ast.Expr) {
		if lit, ok := ast.Unparen(fun).(*ast.FuncLit); ok {
			invoked[lit] = true
		}
	}
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil {
				return true
			}
			switch m := m.(type) {
			case *ast.CallExpr:
				markInvoked(m.Fun)
			case *ast.DeferStmt:
				markInvoked(m.Call.Fun)
			case *ast.GoStmt:
				markInvoked(m.Call.Fun)
			case *ast.FuncLit:
				if !invoked[m] {
					return false
				}
			}
			f(m)
			return true
		})
	}
	walk(n)
}

// walkWithStack walks root maintaining the ancestor stack (root first,
// parent of n last). Returning false prunes the subtree.
func walkWithStack(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !f(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// enclosedByFreeLit reports whether the node whose ancestor stack is given
// sits inside a function literal that is not directly deferred, spawned,
// or immediately called — a closure the solver cannot see run.
func enclosedByFreeLit(stack []ast.Node) bool {
	for i, n := range stack {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			continue
		}
		run := false
		if i > 0 {
			switch p := stack[i-1].(type) {
			case *ast.CallExpr:
				run = ast.Unparen(p.Fun) == lit
			case *ast.DeferStmt:
				run = ast.Unparen(p.Call.Fun) == lit
			case *ast.GoStmt:
				run = ast.Unparen(p.Call.Fun) == lit
			}
		}
		if !run {
			return true
		}
	}
	return false
}

// exitPhrase renders an edge kind for diagnostics.
func exitPhrase(kind EdgeKind) string {
	if kind == EdgePanic {
		return "panicking"
	}
	return "returning"
}

// shortPos renders a resolved position as base-filename:line.
func shortPos(p token.Position) string {
	return filepath.Base(p.Filename) + ":" + itoa(p.Line)
}

// itoa avoids importing strconv for one call site.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	neg := n < 0
	if neg {
		n = -n
	}
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
