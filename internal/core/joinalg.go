package core

import (
	"cmp"
	"context"
	"slices"

	"spatialjoin/internal/obs"
	"spatialjoin/internal/parallel"
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
func SortMatches(ms []Match) {
	slices.SortFunc(ms, func(a, b Match) int {
		if c := cmp.Compare(a.R, b.R); c != 0 {
			return c
		}
		return cmp.Compare(a.S, b.S)
	})
}

// JoinOptions tunes algorithm JOIN.
type JoinOptions struct {
	// TouchR / TouchS are invoked once per examined node of the respective
	// tree, before its filter is evaluated; executors charge page I/O here.
	// With Workers > 1 they are called from multiple goroutines and must be
	// safe for concurrent use.
	TouchR func(Node) error
	TouchS func(Node) error
	// Workers is the number of goroutines expanding each QualPairs level
	// concurrently; values ≤ 1 keep the paper's sequential descent. The
	// result is identical either way: each level's pair list is split into
	// contiguous chunks, every worker accumulates into its own JoinResult,
	// and the partial results are merged back in chunk order.
	Workers int
	// Ctx, when non-nil, bounds the descent: it is checked between levels,
	// between worker chunks, and every ctxStride node examinations inside a
	// chunk, and its error aborts the join mid-descent.
	Ctx context.Context
	// Trace, when non-nil, records the synchronized descent: one span named
	// "level" per QualPairs level, nested under TraceParent, carrying the
	// level index, its QualPairs cardinality, and the filter/exact/node
	// deltas accrued expanding it. A level aborted by an error still ends
	// its span (with an "error" event), so failed queries keep a complete
	// trace.
	Trace       *obs.Trace
	TraceParent obs.SpanID
	// TraceReads, when non-nil, is sampled at the sequential level
	// boundaries; each level span carries the delta as its "reads"
	// attribute. Levels are expanded one at a time (the worker fan-out is
	// per level, with a barrier), so the per-level deltas telescope: they
	// sum exactly to the sampler's total movement across the descent.
	TraceReads func() int64
}

// JoinResult is the output of algorithm JOIN.
type JoinResult struct {
	// Pairs are the matching tuple pairs in discovery order. Each matching
	// pair appears exactly once.
	Pairs []Match
	// Stats is the work performed across both trees.
	Stats Stats
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
func Join(tr, ts Tree, op pred.Operator, opts *JoinOptions) (*JoinResult, error) {
	var options JoinOptions
	if opts != nil {
		options = *opts
	}
	res := &JoinResult{}
	rootR, rootS := tr.Root(), ts.Root()
	if rootR == nil || rootS == nil {
		return res, nil
	}

	// qual is the current QualPairs level; spare is the previous level's
	// storage, recycled as the buffer the next level is appended into.
	qual := []qualPair{{rootR, rootS}}
	var spare []qualPair
	for level := 0; len(qual) > 0; level++ {
		if options.Ctx != nil {
			if err := options.Ctx.Err(); err != nil {
				return nil, err
			}
		}
		if len(qual) > res.Stats.MaxQueue {
			res.Stats.MaxQueue = len(qual)
		}
		if options.Trace == nil {
			next, err := expandLevel(qual, spare[:0], op, &options, res)
			if err != nil {
				return nil, err
			}
			qual, spare = next, qual
			continue
		}
		span := options.Trace.Begin(options.TraceParent, "level")
		before := res.Stats
		var readsBefore int64
		if options.TraceReads != nil {
			readsBefore = options.TraceReads()
		}
		next, err := expandLevel(qual, spare[:0], op, &options, res)
		attrs := []obs.Attr{
			obs.Int("level", int64(level)),
			obs.Int("qualpairs", int64(len(qual))),
			obs.Int("filter_evals", res.Stats.FilterEvals-before.FilterEvals),
			obs.Int("exact_evals", res.Stats.ExactEvals-before.ExactEvals),
			obs.Int("nodes", res.Stats.NodesExamined-before.NodesExamined),
		}
		if options.TraceReads != nil {
			attrs = append(attrs, obs.Int("reads", options.TraceReads()-readsBefore))
		}
		if err != nil {
			options.Trace.Event(span, "error", obs.Str("error", err.Error()))
			options.Trace.End(span, attrs...)
			return nil, err
		}
		options.Trace.End(span, attrs...)
		qual, spare = next, qual
	}
	return res, nil
}

// qualPair is one entry of a QualPairs level: a node of each tree whose
// parents' Θ filters both passed.
type qualPair struct{ a, b Node }

// expandLevel processes one QualPairs level and returns the next, appended
// to next (an empty buffer whose storage is reused). With
// options.Workers > 1 the level is split into contiguous chunks fanned out
// over a worker pool; per-worker results merge back in chunk order, so
// pair discovery order and statistics match the sequential descent.
func expandLevel(qual, next []qualPair, op pred.Operator, options *JoinOptions,
	res *JoinResult) ([]qualPair, error) {

	workers := options.Workers
	if workers <= 1 || len(qual) < 2 {
		return expandChunk(qual, next, op, options, res)
	}
	chunks := parallel.Chunks(len(qual), workers*4)
	locals := make([]JoinResult, len(chunks))
	nexts := make([][]qualPair, len(chunks))
	err := parallel.RunCtx(ctxOr(options.Ctx), workers, len(chunks), func(ci int) error {
		nx, err := expandChunk(qual[chunks[ci].Lo:chunks[ci].Hi], nil, op, options, &locals[ci])
		nexts[ci] = nx
		return err
	})
	if err != nil {
		return nil, err
	}
	for ci := range chunks {
		res.Pairs = append(res.Pairs, locals[ci].Pairs...)
		res.Stats.add(locals[ci].Stats)
		next = append(next, nexts[ci]...)
	}
	return next, nil
}

// expandChunk runs JOIN2–JOIN4 for a contiguous run of a QualPairs level,
// accumulating matches and stats into res and appending the qualifying
// child pairs for the next level to next. The per-pair scratch (the
// children of each side that passed their Θ check) is reused across pairs,
// so the chunk allocates only when next or res.Pairs grow.
func expandChunk(qual, next []qualPair, op pred.Operator, options *JoinOptions,
	res *JoinResult) ([]qualPair, error) {

	var aPass, bPass []Node
	for _, p := range qual {
		a, b := p.a, p.b
		// JOIN2: Θ check for the pair.
		if err := touch2(a, b, options, res); err != nil {
			return nil, err
		}
		res.Stats.FilterEvals++
		if !op.Filter(a.Bounds(), b.Bounds()) {
			continue
		}
		// JOIN3: exact match of the pair itself.
		if ra, okA := a.Tuple(); okA {
			if sb, okB := b.Tuple(); okB {
				res.Stats.ExactEvals++
				if op.Eval(a.Object(), b.Object()) {
					res.Pairs = append(res.Pairs, Match{R: ra, S: sb})
				}
			}
		}
		// JOIN4: SELECT a against b's subtrees, and b against a's.
		bPass = bPass[:0]
		for j, nb := 0, b.NumChildren(); j < nb; j++ {
			b2 := b.Child(j)
			ok, err := joinSelect(a, b2, op, rightSide, options, res)
			if err != nil {
				return nil, err
			}
			if ok {
				bPass = append(bPass, b2)
			}
		}
		aPass = aPass[:0]
		for i, na := 0, a.NumChildren(); i < na; i++ {
			a2 := a.Child(i)
			ok, err := joinSelect(b, a2, op, leftSide, options, res)
			if err != nil {
				return nil, err
			}
			if ok {
				aPass = append(aPass, a2)
			}
		}
		for _, a2 := range aPass {
			for _, b2 := range bPass {
				next = append(next, qualPair{a2, b2})
			}
		}
	}
	return next, nil
}

// side distinguishes which tree the moving node of a join-side SELECT pass
// belongs to, so operands stay in R-before-S order.
type side uint8

const (
	rightSide side = iota // fixed node is from R, moving subtree from S
	leftSide              // fixed node is from S, moving subtree from R
)

// joinSelect runs a SELECT pass of JOIN4: fixed is compared against the
// subtree rooted at n. It reports whether the Θ filter passed at n itself
// (the qualification JOIN4 uses to build QualPairs[j+1]).
func joinSelect(fixed, n Node, op pred.Operator, s side,
	opts *JoinOptions, res *JoinResult) (bool, error) {

	if err := touch1(n, s, opts, res); err != nil {
		return false, err
	}
	res.Stats.FilterEvals++
	var pass bool
	if s == rightSide {
		pass = op.Filter(fixed.Bounds(), n.Bounds())
	} else {
		pass = op.Filter(n.Bounds(), fixed.Bounds())
	}
	if !pass {
		return false, nil
	}
	if fid, okF := fixed.Tuple(); okF {
		if nid, okN := n.Tuple(); okN {
			res.Stats.ExactEvals++
			if s == rightSide {
				if op.Eval(fixed.Object(), n.Object()) {
					res.Pairs = append(res.Pairs, Match{R: fid, S: nid})
				}
			} else {
				if op.Eval(n.Object(), fixed.Object()) {
					res.Pairs = append(res.Pairs, Match{R: nid, S: fid})
				}
			}
		}
	}
	for i, k := 0, n.NumChildren(); i < k; i++ {
		if _, err := joinSelect(fixed, n.Child(i), op, s, opts, res); err != nil {
			return false, err
		}
	}
	return true, nil
}

// touch2 charges node examinations for both members of a QualPairs pair.
func touch2(a, b Node, opts *JoinOptions, res *JoinResult) error {
	res.Stats.NodesExamined += 2
	if err := ctxStep(opts.Ctx, res.Stats.NodesExamined); err != nil {
		return err
	}
	if opts.TouchR != nil {
		if err := opts.TouchR(a); err != nil {
			return err
		}
	}
	if opts.TouchS != nil {
		if err := opts.TouchS(b); err != nil {
			return err
		}
	}
	return nil
}

// touch1 charges a node examination on the moving side of a SELECT pass.
func touch1(n Node, s side, opts *JoinOptions, res *JoinResult) error {
	res.Stats.NodesExamined++
	if err := ctxStep(opts.Ctx, res.Stats.NodesExamined); err != nil {
		return err
	}
	if s == rightSide {
		if opts.TouchS != nil {
			return opts.TouchS(n)
		}
		return nil
	}
	if opts.TouchR != nil {
		return opts.TouchR(n)
	}
	return nil
}
