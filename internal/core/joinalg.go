package core

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"sync"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/pred"
)

// Match is one result pair of a spatial join: tuple IDs from the R-side and
// S-side relations.
type Match struct {
	R, S int
}

// SortMatches orders matches canonically by (R, S) ascending. Every
// strategy sorts its result this way before returning, so the outputs of
// different strategies — and of serial and parallel runs of the same
// strategy — are byte-comparable.
func SortMatches(ms []Match) { slices.SortFunc(ms, compareMatches) }

// compareMatches is the canonical (R, S) order.
func compareMatches(a, b Match) int {
	if c := cmp.Compare(a.R, b.R); c != 0 {
		return c
	}
	return cmp.Compare(a.S, b.S)
}

// JoinOptions tunes algorithm JOIN.
type JoinOptions struct {
	// ReadR / ReadS read the tuple of a node of the respective tree, at the
	// point its tuple is read (Node.ContainsTuple): a node that contains its
	// tuple once per examination, before its Θ filter, with no dst because
	// the node carries the value; a node that only references it when θ
	// needs it, and the value is θ's operand. Such a node is never read for
	// Θ alone, and one that reaches θ with no reader fails the join rather
	// than evaluate θ on its MBR. Nodes below a technical fixed node of a
	// JOIN4 SELECT pass are not examined, nor, in JOIN4, the second side's
	// children when the first side qualified none of a technical node or
	// one of a technical pair; a childless pair is decided in the level that
	// formed it (see Join). Two nodes that only reference their tuples are
	// read after their level's Θ filter in Refine's block schedule: per
	// block, ReadR once for each distinct R tuple in (R page, R) order, then
	// ReadS once for each distinct S tuple in (S page, S) order. They are
	// called from the goroutine that called Join.
	ReadR, ReadS Reader
	// PagesR and PagesS place R's and S's tuples on their heap pages, and
	// Block is the most distinct R tuples whose operands a refinement block
	// holds: the paper's m·(M−10), m tuples of R per page and M the pool's
	// frames (see Refine). A nil Pages puts each tuple on a page of its
	// own; Block ≤ 0 makes each refinement one block.
	PagesR, PagesS Pages
	Block          int
	// Ctx, when non-nil, bounds the descent: it is checked between levels
	// and every ctxStride node examinations inside one, and before every
	// read and θ of a refinement, and its error aborts the join mid-descent.
	Ctx context.Context
	// Trace, when non-nil, records the synchronized descent: one span named
	// "level" per QualPairs level, nested under TraceParent, carrying the
	// level index, its QualPairs cardinality, and the filter/exact/node
	// deltas accrued expanding it. A level aborted by an error still ends
	// its span (with an "error" event), so failed queries keep a complete
	// trace.
	Trace       *obs.Trace
	TraceParent obs.SpanID
	// TraceReads, when non-nil, is the query's read account (the counter
	// its readers charge their misses to), read at the level boundaries;
	// each level span carries its movement as the "reads" attribute.
	// Levels are expanded one at a time, so the per-level reads telescope:
	// they sum exactly to the account's movement across the descent.
	TraceReads *obs.Counter
}

// JoinResult is the output of algorithm JOIN.
type JoinResult struct {
	// Pairs are the matching tuple pairs in discovery order, except that
	// the matches between index entries a level decides come out at the
	// level's end, block by block in Refine's schedule, each block's in
	// (R page, R, S) order (see Join). Each matching pair appears exactly
	// once.
	Pairs []Match
	// Stats is the work performed across both trees.
	Stats Stats

	// dstR and dstS are where Theta's readers store a rectangle operand.
	// Join's result lives in its pooled scratch, so handing their addresses
	// to a reader allocates nothing per θ, as a stack local's would.
	dstR, dstS geom.Rect
}

// Join implements algorithm JOIN (§3.3): the general spatial join R ⋈θ S of
// two relations indexed by generalization trees tr and ts. Levels are
// processed via QualPairs lists exactly as in the paper: a pair (a, b) whose
// Θ filter passes (JOIN2) contributes its own tuples if a θ b (JOIN3), and
// then two SELECT passes find all matches between a and strict descendants
// of b and between strict descendants of a and b, while the direct
// descendants that passed their Θ checks are crossed into QualPairs[j+1]
// (JOIN4).
//
// The operand order is fixed: R-side values are always the left operand of
// Eval and Filter, so asymmetric operators (northwest_of, includes) join in
// the expected direction. Unlike the paper's pseudocode, iteration continues
// until QualPairs empties rather than to min(height, height), which also
// handles ragged (non-balanced) generalization trees.
//
// JOIN4 under technical nodes. The paper assumes every node is a tuple (S2),
// so a SELECT pass of a against b's subtrees can find a match at any depth.
// Index trees violate S2: an R-tree's interior nodes are technical
// (Tuple reports false). A pass whose fixed node is technical evaluates Θ
// against each direct descendant — JOIN4 needs those verdicts to build
// QualPairs[j+1] — and stops there. Nothing is lost: θ is evaluated only
// between two tuple-bearing nodes, so the skipped recursion could emit no
// pair; the verdict a pass returns is the Θ result at its top node, which
// is computed before any descent; and QualPairs[j+1] is built from those
// verdicts alone, so every later level sees the same pairs. A match (x, y)
// with x shallower than y is still found by the pass whose fixed node is x,
// which bears a tuple and therefore descends. On trees that satisfy S2 the
// guard is never taken and the descent is the paper's, count for count.
//
// A pair of two technical nodes emits nothing, so its JOIN4 restricts
// QualPairs[j+1] alone: first the children of the node with the larger MBR
// (b's on a tie) against the other node, then the other's children against
// the union of the passes, or, after exactly one pass, all untested, each
// pair's Θ being its only test. Every pair whose Θ can pass is formed.
//
// A page is read only while it can still pay, and in page order: three more
// departures from the pseudocode (argument and measurements in DESIGN.md
// §3). (i) When the first side qualified no child of a technical node, the
// second side's children are not restricted: with that node fixed no pass
// can emit a pair, and their verdicts would be crossed with an empty list.
// (ii) When the qualifying children are crossed, a pair of two childless
// nodes is decided in the level that formed it (JOIN2 and JOIN3; its JOIN4
// would be empty) instead of being queued. (iii) When a Θ-passing pair is
// two nodes that only reference their tuples (two R-tree items), its JOIN3
// waits for the end of the level, where Refine runs θ on all such pairs in
// the paper's block schedule: the filter step, then the refinement step,
// with each block's R operands read once and S's pages swept once per
// block. JOIN keeps no state across pairs but counters and an output every
// caller sorts, so only the order of θ and of the matches moves, and on S2
// trees every count is the paper's. Where a node's tuple is read follows
// Node.ContainsTuple: an index entry's tuple is read only for θ, and is
// θ's operand (see JoinOptions.ReadR).
func Join(tr, ts Tree, op pred.Operator, opts *JoinOptions) (JoinResult, error) {
	rootR, rootS := tr.Root(), ts.Root()
	if rootR == nil || rootS == nil {
		return JoinResult{}, nil
	}

	// sc.qual is the current QualPairs level; sc.spare is the previous
	// level's storage, recycled as the buffer the next level is appended
	// into. Both come from a pooled scratch, so a join allocates worklist
	// storage only when a level outgrows what an earlier join left behind.
	// The result accumulates in it, because readers are handed the
	// addresses of its scratch rectangles: so the join allocates no result,
	// only the answer it hands back.
	sc := joinScratchPool.Get().(*joinScratch)
	defer sc.release()
	var none JoinOptions
	options, res := opts, &sc.part
	if options == nil {
		options = &none
	}
	*res = JoinResult{}
	sc.qual = append(sc.qual[:0], qualPair{rootR, rootS})
	for level := 0; len(sc.qual) > 0; level++ {
		if options.Ctx != nil {
			if err := options.Ctx.Err(); err != nil {
				return JoinResult{}, err
			}
		}
		if len(sc.qual) > res.Stats.MaxQueue {
			res.Stats.MaxQueue = len(sc.qual)
		}
		if options.Trace == nil {
			next, err := joinLevel(sc, op, options, res)
			if err != nil {
				return JoinResult{}, err
			}
			sc.qual, sc.spare = next, sc.qual
			continue
		}
		span := options.Trace.Begin(options.TraceParent, "level")
		before := res.Stats
		readsBefore := options.TraceReads.Value()
		next, err := joinLevel(sc, op, options, res)
		attrs := []obs.Attr{
			obs.Int("level", int64(level)),
			obs.Int("qualpairs", int64(len(sc.qual))),
			obs.Int("filter_evals", res.Stats.FilterEvals-before.FilterEvals),
			obs.Int("exact_evals", res.Stats.ExactEvals-before.ExactEvals),
			obs.Int("nodes", res.Stats.NodesExamined-before.NodesExamined),
		}
		if options.TraceReads != nil {
			attrs = append(attrs, obs.Int("reads", options.TraceReads.Value()-readsBefore))
		}
		if err != nil {
			options.Trace.Event(span, "error", obs.Str("error", err.Error()))
			options.Trace.End(span, attrs...)
			return JoinResult{}, err
		}
		options.Trace.End(span, attrs...)
		sc.qual, sc.spare = next, sc.qual
	}
	// The pairs are the caller's now: the scratch must not reuse them.
	out := JoinResult{Pairs: res.Pairs, Stats: res.Stats}
	*res = JoinResult{}
	return out, nil
}

// qualPair is one entry of a QualPairs level: a node of each tree whose
// parents' Θ filters both passed.
type qualPair struct{ a, b Node }

// joinScratch is the worklist storage of one descent: the two QualPairs
// buffers Join alternates between (each level builds the next in spare),
// the per-pair lists of children that passed their Θ check, the pairs of
// index entries waiting for θ, the decoded R operands of a refinement block
// (rects holds the rectangles among them) and the S operand's rectangle,
// and the descent's result.
type joinScratch struct {
	qual, spare  []qualPair
	aPass, bPass []Node
	refine       []Candidate
	rKeys, sKeys []refKey
	ops          []geom.Spatial
	rects        []geom.Rect
	dstS         geom.Rect
	part         JoinResult
}

var joinScratchPool = sync.Pool{New: func() any { return new(joinScratch) }}

// release clears every slot the descent may have written — so a pooled
// scratch keeps no Node, and through it no index entry, alive — and
// returns the scratch to the pool.
func (sc *joinScratch) release() {
	clear(sc.qual[:cap(sc.qual)])
	clear(sc.spare[:cap(sc.spare)])
	clear(sc.aPass[:cap(sc.aPass)])
	clear(sc.bPass[:cap(sc.bPass)])
	clear(sc.refine[:cap(sc.refine)])
	clear(sc.ops[:cap(sc.ops)])
	joinScratchPool.Put(sc)
}

// joinLevel runs JOIN2–JOIN4 for the QualPairs level sc.qual,
// accumulating matches and stats into res, and returns the qualifying
// child pairs for the next level, built in sc.spare's storage; then it
// refines the pairs of index entries it deferred. The per-pair lists in sc
// (the children of each side that passed their Θ check) and its refinement
// list are reused, so the level allocates only when the next level,
// res.Pairs or a pooled list grow.
func joinLevel(sc *joinScratch, op pred.Operator, options *JoinOptions,
	res *JoinResult) ([]qualPair, error) {

	next := sc.spare[:0]
	sc.refine = sc.refine[:0]
	for _, p := range sc.qual {
		a, b := p.a, p.b
		ok, err := joinPair(a, b, op, options, sc, res)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		// JOIN4: SELECT a against b's subtrees, and b against a's, or, for
		// two technical nodes, restrict the larger's children first (see Join).
		first, second, fs, ss := b, a, MovingS, MovingR
		fPass, sPass := &sc.bPass, &sc.aPass
		_, tupleA := a.Tuple()
		_, tupleB := b.Tuple()
		technical := !tupleA && !tupleB
		if technical && a.Bounds().Area() > b.Bounds().Area() {
			first, second, fs, ss, fPass, sPass = a, b, MovingR, MovingS, sPass, fPass
		}
		sc.aPass, sc.bPass = sc.aPass[:0], sc.bPass[:0]
		var passed geom.Rect
		for i, n := 0, first.NumChildren(); i < n; i++ {
			c := first.Child(i)
			ok, err := JoinSelect(second, c, op, fs, options, res)
			if err != nil {
				return nil, err
			}
			if ok {
				if len(*fPass) == 0 {
					passed = c.Bounds()
				}
				passed = passed.Union(c.Bounds())
				*fPass = append(*fPass, c)
			}
		}
		if _, tuple := first.Tuple(); !tuple && len(*fPass) == 0 {
			continue // the second side could emit nothing and qualify for nothing
		}
		for i, n := 0, second.NumChildren(); i < n; i++ {
			c, ok := second.Child(i), true
			var err error
			switch {
			case !technical:
				ok, err = JoinSelect(first, c, op, ss, options, res)
			case len(*fPass) > 1:
				ok, err = restrictOne(c, passed, ss, op, options, res)
			}
			if err != nil {
				return nil, err
			}
			if ok {
				*sPass = append(*sPass, c)
			}
		}
		for _, a2 := range sc.aPass {
			aDescends := a2.NumChildren() != 0
			for _, b2 := range sc.bPass {
				// Only a pair with a descent left is queued; a childless
				// one is decided in this level.
				if aDescends || b2.NumChildren() != 0 {
					next = append(next, qualPair{a2, b2})
				} else if _, err := joinPair(a2, b2, op, options, sc, res); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := sc.refineBlocks(sc.refine, op, options, res); err != nil {
		return nil, err
	}
	return next, nil
}

// joinPair runs JOIN2 and JOIN3 for one pair: both nodes are examined, Θ is
// evaluated, and if it passes and both bear tuples, θ decides the match —
// on the spot, or, for two nodes that only reference their tuples, in the
// level's refinement (sc.refine). It reports the Θ verdict, which gates the
// pair's JOIN4.
func joinPair(a, b Node, op pred.Operator, options *JoinOptions, sc *joinScratch,
	res *JoinResult) (bool, error) {

	if err := examine2(a, b, options, res); err != nil {
		return false, err
	}
	res.Stats.FilterEvals++
	if !op.Filter(a.Bounds(), b.Bounds()) {
		return false, nil
	}
	_, okA := a.Tuple()
	_, okB := b.Tuple()
	switch {
	case !okA || !okB:
	case !a.ContainsTuple() && !b.ContainsTuple():
		sc.refine = append(sc.refine, Candidate{R: a, S: b})
	default:
		if err := Theta(a, b, op, options, res); err != nil {
			return false, err
		}
	}
	return true, nil
}

// Theta runs JOIN3 for a Θ-passing pair of tuple-bearing nodes r and s,
// accumulating into res: it takes each operand from the node or, for a node
// that only references its tuple, from the options' reader, evaluates θ, and
// emits the pair's tuple IDs on a match. Callers running their own level
// loop (package localindex) use it so there is one θ step, not two.
func Theta(r, s Node, op pred.Operator, opts *JoinOptions, res *JoinResult) error {
	res.Stats.ExactEvals++
	ro, err := Operand(opts.ReadR, r, &res.dstR)
	if err != nil {
		return err
	}
	so, err := Operand(opts.ReadS, s, &res.dstS)
	if err != nil {
		return err
	}
	if op.Eval(ro, so) {
		rid, _ := r.Tuple()
		sid, _ := s.Tuple()
		res.Pairs = append(res.Pairs, Match{R: rid, S: sid})
	}
	return nil
}

// Side names the tree the moving node of a JOIN4 SELECT pass belongs to, so
// operands stay in R-before-S order.
type Side uint8

const (
	MovingS Side = iota // fixed node is from R, moving subtree from S
	MovingR             // fixed node is from S, moving subtree from R
)

// JoinSelect runs a SELECT pass of JOIN4: fixed is compared against the
// subtree rooted at n, matches and work accumulate into res. It reports
// whether the Θ filter passed at n itself (the qualification JOIN4 uses to
// build QualPairs[j+1]). The pass descends below n only when fixed bears a
// tuple: under a technical fixed node no θ can be evaluated, so nothing
// below n is examined (see Join). Callers running their own level loop
// (package localindex) use it so there is one SELECT pass, not two.
func JoinSelect(fixed, n Node, op pred.Operator, s Side,
	opts *JoinOptions, res *JoinResult) (bool, error) {

	if ok, err := restrictOne(n, fixed.Bounds(), s, op, opts, res); !ok || err != nil {
		return false, err
	}
	if _, ok := fixed.Tuple(); !ok {
		return true, nil
	}
	if _, ok := n.Tuple(); ok {
		r, sn := fixed, n
		if s == MovingR {
			r, sn = n, fixed
		}
		if err := Theta(r, sn, op, opts, res); err != nil {
			return false, err
		}
	}
	for i, k := 0, n.NumChildren(); i < k; i++ {
		if _, err := JoinSelect(fixed, n.Child(i), op, s, opts, res); err != nil {
			return false, err
		}
	}
	return true, nil
}

// restrictOne examines n, a node of the moving side s, and evaluates Θ
// between its MBR and the other side's rectangle against, R-side first.
func restrictOne(n Node, against geom.Rect, s Side, op pred.Operator,
	opts *JoinOptions, res *JoinResult) (bool, error) {

	if err := examine1(n, s, opts, res); err != nil {
		return false, err
	}
	res.Stats.FilterEvals++
	if s == MovingR {
		return op.Filter(n.Bounds(), against), nil
	}
	return op.Filter(against, n.Bounds()), nil
}

// examine2 counts the examination of both members of a QualPairs pair.
func examine2(a, b Node, opts *JoinOptions, res *JoinResult) error {
	res.Stats.NodesExamined += 2
	if err := ctxStep(opts.Ctx, res.Stats.NodesExamined, 2); err != nil {
		return err
	}
	if err := readExamined(opts.ReadR, a); err != nil {
		return err
	}
	return readExamined(opts.ReadS, b)
}

// examine1 counts a node examination on the moving side of a SELECT pass.
func examine1(n Node, s Side, opts *JoinOptions, res *JoinResult) error {
	res.Stats.NodesExamined++
	if err := ctxStep(opts.Ctx, res.Stats.NodesExamined, 1); err != nil {
		return err
	}
	if s == MovingS {
		return readExamined(opts.ReadS, n)
	}
	return readExamined(opts.ReadR, n)
}

// readExamined reads the tuple of an examined node that contains it with
// no dst: the node carries the value, so none is built. A node that only
// references its tuple is read by operand, for θ alone.
func readExamined(read Reader, n Node) error {
	if read == nil || !n.ContainsTuple() {
		return nil
	}
	_, err := read(n, nil)
	return err
}

// Operand returns θ's operand for the tuple-bearing node n: the object a
// node that contains its tuple carries (its reader ran when it was
// examined), or else the tuple read now. A node that only references its
// tuple stores no more than its MBR, and θ never runs on that.
func Operand(read Reader, n Node, dst *geom.Rect) (geom.Spatial, error) {
	if n.ContainsTuple() {
		return n.Object(), nil
	}
	if read == nil {
		return nil, errors.New("core: θ needs the tuple of a node that only references it, and no reader was given")
	}
	return read(n, dst)
}
