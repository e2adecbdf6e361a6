package core

import (
	"context"
	"sync"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/pred"
)

// Stats counts the work an algorithm performed, in the units of the paper's
// cost model: Θ filter evaluations (charged C_Θ each), exact θ evaluations,
// and node examinations. The page accesses the executor layer's readers make
// follow Node.ContainsTuple: one per examination of a node that contains its
// tuple, one per θ operand that only references it.
type Stats struct {
	// FilterEvals is the number of Θ evaluations.
	FilterEvals int64
	// ExactEvals is the number of θ evaluations.
	ExactEvals int64
	// NodesExamined is the number of node visits. It equals the number of
	// reader calls only on trees whose nodes contain their tuples.
	NodesExamined int64
	// MaxQueue is the peak size of the traversal worklist, a memory proxy.
	// For Join, the largest QualPairs level; childless pairs are not queued.
	MaxQueue int
}

// Traversal selects the tree-search order of algorithm SELECT. The paper
// formulates SELECT breadth-first and notes a depth-first variant is equally
// possible, with the better choice depending on the physical clustering of
// the tree (§3.2).
type Traversal uint8

const (
	// BreadthFirst is the paper's QualNodes-per-level formulation.
	BreadthFirst Traversal = iota
	// DepthFirst recurses into each qualifying subtree immediately.
	DepthFirst
)

// SelectOptions tunes algorithm SELECT.
type SelectOptions struct {
	// Traversal is the search order; the zero value is BreadthFirst.
	Traversal Traversal
	// Read reads a node's tuple at the point it is read
	// (Node.ContainsTuple): once per examined node that contains its tuple,
	// before its Θ filter, with no dst since the node carries the value; for a
	// node that only references it, immediately before θ, whose operand it
	// returns, so a node Θ rejects is never read. A node of the second kind
	// that reaches θ with no reader fails the selection.
	Read Reader
	// Ctx, when non-nil, bounds the traversal: it is checked between
	// breadth-first levels and every ctxStride node examinations, and its
	// error aborts the selection.
	Ctx context.Context
	// Trace, when non-nil, records the traversal under TraceParent: one
	// "level" span per QualNodes level breadth-first (with the level index,
	// cardinality, and work deltas), or a single "dfs" span for the
	// depth-first variant. An aborted traversal still ends its open span
	// with an "error" event, keeping failed queries' traces complete.
	Trace       *obs.Trace
	TraceParent obs.SpanID
	// TraceReads, when non-nil, is the query's read account, read at level
	// boundaries; each span carries its movement as the "reads" attribute
	// (see JoinOptions).
	TraceReads *obs.Counter
}

// SelectResult is the output of algorithm SELECT.
type SelectResult struct {
	// Tuples are the IDs of matching tuples, in discovery order; nil when
	// none matched.
	Tuples []int
	// Stats is the work performed.
	Stats Stats

	// dst is where Read stores a rectangle operand (see JoinResult).
	dst geom.Rect
}

// selectScratch is the storage of one SELECT descent, pooled like
// joinScratch: the two QualNodes buffers the breadth-first levels alternate
// between, the options, and the result as it is found, whose dst a reader
// is handed and so must be on the heap. A selection allocates its answer,
// copied out of res.Tuples at its size, and nothing else once an earlier
// selection has grown the buffers.
type selectScratch struct {
	qual, spare []Node
	opts        SelectOptions
	res         SelectResult
}

var selectScratchPool = sync.Pool{New: func() any { return new(selectScratch) }}

// release clears every slot the descent may have written — so a pooled
// scratch keeps no Node, context, trace or reader alive — empties the
// result and returns the scratch to the pool.
func (sc *selectScratch) release() {
	clear(sc.qual[:cap(sc.qual)])
	clear(sc.spare[:cap(sc.spare)])
	sc.opts = SelectOptions{}
	sc.res = SelectResult{Tuples: sc.res.Tuples[:0]}
	selectScratchPool.Put(sc)
}

// Select implements algorithm SELECT (§3.2): given a selector object o and a
// relation indexed by the generalization tree tree, it returns the tuples a
// with o θ a. The Θ filter of op prunes subtrees that cannot contain
// matches; interior nodes that carry tuples may themselves qualify.
//
// The operand order follows the paper's selection criterion "o θ R.A": o is
// always the left operand of both Eval and Filter.
func Select(tree Tree, o geom.Spatial, op pred.Operator, opts *SelectOptions) (SelectResult, error) {
	root := tree.Root()
	if root == nil {
		return SelectResult{}, nil
	}
	sc := selectScratchPool.Get().(*selectScratch)
	defer sc.release()
	if opts != nil {
		sc.opts = *opts
	}
	options, res := &sc.opts, &sc.res
	ob := o.Bounds()
	var err error
	if options.Traversal == DepthFirst {
		end := traceLevel(options, res, "dfs", -1, 1)
		err = selectDFS(root, o, ob, op, options, res)
		end(err)
	} else {
		err = sc.breadthFirst(root, o, ob, op)
	}
	if err != nil {
		return SelectResult{}, err
	}
	return SelectResult{Tuples: append([]int(nil), res.Tuples...), Stats: res.Stats}, nil
}

// breadthFirst is SELECT's QualNodes-per-level descent: sc.qual is the
// worklist for the current level, and the previous level's storage is
// recycled as the next level's buffer.
func (sc *selectScratch) breadthFirst(root Node, o geom.Spatial, ob geom.Rect, op pred.Operator) error {
	options, res := &sc.opts, &sc.res
	sc.qual = append(sc.qual[:0], root)
	for level := 0; len(sc.qual) > 0; level++ {
		if options.Ctx != nil {
			if err := options.Ctx.Err(); err != nil {
				return err
			}
		}
		if len(sc.qual) > res.Stats.MaxQueue {
			res.Stats.MaxQueue = len(sc.qual)
		}
		end := traceLevel(options, res, "level", level, len(sc.qual))
		next := sc.spare[:0]
		var lvlErr error
		for _, a := range sc.qual {
			ok, err := examine(a, o, ob, op, options, res)
			if err != nil {
				lvlErr = err
				break
			}
			if ok {
				for i, k := 0, a.NumChildren(); i < k; i++ {
					next = append(next, a.Child(i))
				}
			}
		}
		end(lvlErr)
		if lvlErr != nil {
			return lvlErr
		}
		sc.qual, sc.spare = next, sc.qual
	}
	return nil
}

// traceLevel opens one traversal span (a breadth-first level or the whole
// depth-first descent) and returns the closure that ends it with the work
// deltas — and an "error" event when the traversal aborted. With tracing
// off it returns a no-op without touching the clock.
func traceLevel(options *SelectOptions, res *SelectResult, name string, level, width int) func(error) {
	if options.Trace == nil {
		return func(error) {}
	}
	span := options.Trace.Begin(options.TraceParent, name)
	before := res.Stats
	readsBefore := options.TraceReads.Value()
	return func(err error) {
		attrs := make([]obs.Attr, 0, 6)
		if level >= 0 {
			attrs = append(attrs, obs.Int("level", int64(level)))
		}
		attrs = append(attrs,
			obs.Int("qualnodes", int64(width)),
			obs.Int("filter_evals", res.Stats.FilterEvals-before.FilterEvals),
			obs.Int("exact_evals", res.Stats.ExactEvals-before.ExactEvals),
			obs.Int("nodes", res.Stats.NodesExamined-before.NodesExamined),
		)
		if options.TraceReads != nil {
			attrs = append(attrs, obs.Int("reads", options.TraceReads.Value()-readsBefore))
		}
		if err != nil {
			options.Trace.Event(span, "error", obs.Str("error", err.Error()))
		}
		options.Trace.End(span, attrs...)
	}
}

// selectDFS is the depth-first variant of SELECT.
func selectDFS(n Node, o geom.Spatial, ob geom.Rect, op pred.Operator,
	opts *SelectOptions, res *SelectResult) error {

	ok, err := examine(n, o, ob, op, opts, res)
	if err != nil || !ok {
		return err
	}
	for i, k := 0, n.NumChildren(); i < k; i++ {
		if err := selectDFS(n.Child(i), o, ob, op, opts, res); err != nil {
			return err
		}
	}
	return nil
}

// examine performs the per-node work of SELECT2: count the node (reading
// its tuple if it contains it), evaluate the Θ filter and — if it passes —
// the exact θ predicate on the node's operand, recording a match for
// tuple-bearing nodes. It reports whether the node's children should be
// searched.
func examine(a Node, o geom.Spatial, ob geom.Rect, op pred.Operator,
	opts *SelectOptions, res *SelectResult) (descend bool, err error) {

	res.Stats.NodesExamined++
	if err := ctxStep(opts.Ctx, res.Stats.NodesExamined, 1); err != nil {
		return false, err
	}
	if err := readExamined(opts.Read, a); err != nil {
		return false, err
	}
	res.Stats.FilterEvals++
	if !op.Filter(ob, a.Bounds()) {
		return false, nil
	}
	if id, hasTuple := a.Tuple(); hasTuple {
		res.Stats.ExactEvals++
		obj, err := Operand(opts.Read, a, &res.dst)
		if err != nil {
			return false, err
		}
		if op.Eval(o, obj) {
			res.Tuples = append(res.Tuples, id)
		}
	}
	return true, nil
}
