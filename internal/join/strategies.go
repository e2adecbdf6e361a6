package join

import (
	"context"
	"fmt"

	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/joinindex"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/parallel"
	"spatialjoin/internal/pred"
)

// ctxStride is how many inner-loop iterations (tuple scans, index-pair
// probes) pass between context checks; it bounds cancellation latency
// without a per-iteration synchronized load.
const ctxStride = 256

// ctxStep returns the context's error on every ctxStride-th iteration.
func ctxStep(ctx context.Context, i int) error {
	if ctx == nil || i%ctxStride != 0 {
		return nil
	}
	return ctx.Err()
}

// execSpan opens a strategy's executor span from the context's trace and
// returns the trace, the span, and the context rewired so spans opened by
// deeper layers (the per-level descent) nest under it. With no trace armed
// it returns a nil trace and the context unchanged.
func execSpan(ctx context.Context, name string) (*obs.Trace, obs.SpanID, context.Context) {
	trace := obs.TraceFrom(ctx)
	if trace == nil {
		return nil, 0, ctx
	}
	span := trace.Begin(obs.SpanFromContext(ctx), name)
	return trace, span, obs.ContextWithSpan(ctx, span)
}

// endExec closes an executor span with the strategy's measured stats. A
// failed execution still closes its span — with an "error" event and the
// partial stats — so degraded queries keep complete traces.
func endExec(trace *obs.Trace, span obs.SpanID, stats Stats, err error) {
	if trace == nil {
		return
	}
	if err != nil {
		trace.Event(span, "error", obs.Str("error", err.Error()))
	}
	trace.End(span,
		obs.Int("filter_evals", stats.FilterEvals),
		obs.Int("exact_evals", stats.ExactEvals),
		obs.Int("page_reads", stats.PageReads),
		obs.Int("index_reads", stats.IndexReads),
	)
}

// NestedLoop computes R ⋈θ S by the paper's strategy I: blocks of R filling
// most of main memory (M−10 pages worth of tuples), each scanned against the
// whole of S. Both tables must share one buffer pool. ctx is checked between
// blocks and every ctxStride S-tuples inside a scan.
//
// With workers > 1 (≤ 0 meaning GOMAXPROCS) each block's scan of S is split
// into contiguous tuple-ID chunks fanned out over a worker pool; per-worker
// matches and predicate counts merge back in chunk order, so the result and
// the evaluation counts are identical to the sequential run. Page reads are
// the misses the join's own reads cause, which the pool charges to the
// join's account whatever else runs on it; with concurrent workers the LRU
// interleaving — and therefore the exact miss count — can differ from the
// sequential schedule.
func NestedLoop(ctx context.Context, r, s Table, op pred.Operator, workers int) ([]core.Match, Stats, error) {
	if r.Pool != s.Pool {
		return nil, Stats{}, fmt.Errorf("join: nested loop requires a shared buffer pool")
	}
	trace, span, ctx := execSpan(ctx, "nestedloop")
	workers = parallel.Workers(workers)
	var stats Stats
	var out []core.Match

	blockPages := r.Pool.Capacity() - 10
	if blockPages < 1 {
		blockPages = 1
	}
	// Group R tuple IDs by their page so a block is a set of whole pages.
	type pageGroup struct {
		page int
		ids  []int
	}
	byPage := map[int][]int{}
	maxPage := 0
	for id := 0; id < r.Rel.Len(); id++ {
		pg, err := r.Rel.PageOf(id)
		if err != nil {
			return nil, stats, err
		}
		byPage[pg] = append(byPage[pg], id)
		if pg > maxPage {
			maxPage = pg
		}
	}
	var groups []pageGroup
	for pg := 0; pg <= maxPage; pg++ {
		if ids, ok := byPage[pg]; ok {
			groups = append(groups, pageGroup{page: pg, ids: ids})
		}
	}

	// A block's R tuples are decoded once, a rectangle into its own rTuple,
	// into one slice sized for the largest block: it is allocated once per
	// join, and never moves under the operands that point into it.
	type rTuple struct {
		id   int
		obj  geom.Spatial // θ's operand: &rect for a rectangle
		rect geom.Rect
	}
	largest := 0
	for start := 0; start < len(groups); start += blockPages {
		n := 0
		for _, g := range groups[start:min(start+blockPages, len(groups))] {
			n += len(g.ids)
		}
		largest = max(largest, n)
	}
	tuples := make([]rTuple, 0, largest)
	var reads obs.Counter
	runBlock := func(start, end int) error {
		block := tuples[:0]
		for _, g := range groups[start:end] {
			for _, id := range g.ids {
				block = append(block, rTuple{id: id})
				rt := &block[len(block)-1]
				obj, err := r.read(id, &reads, &rt.rect)
				if err != nil {
					return err
				}
				rt.obj = obj
			}
		}
		// One full scan of S per block, chunked over the workers.
		scan := func(lo, hi int) ([]core.Match, int64, error) {
			var found []core.Match
			var evals int64
			var dst geom.Rect
			for sid := lo; sid < hi; sid++ {
				if err := ctxStep(ctx, sid); err != nil {
					return nil, evals, err
				}
				sobj, err := s.read(sid, &reads, &dst)
				if err != nil {
					return nil, evals, err
				}
				for i := range block {
					rt := &block[i]
					evals++
					if op.Eval(rt.obj, sobj) {
						found = append(found, core.Match{R: rt.id, S: sid})
					}
				}
			}
			return found, evals, nil
		}
		if workers <= 1 {
			found, evals, err := scan(0, s.Rel.Len())
			if err != nil {
				return err
			}
			stats.ExactEvals += evals
			out = append(out, found...)
			return nil
		}
		chunks := parallel.Chunks(s.Rel.Len(), workers*4)
		founds := make([][]core.Match, len(chunks))
		evals := make([]int64, len(chunks))
		err := parallel.RunCtx(ctx, workers, len(chunks), func(ci int) error {
			f, e, err := scan(chunks[ci].Lo, chunks[ci].Hi)
			founds[ci], evals[ci] = f, e
			return err
		})
		if err != nil {
			return err
		}
		for ci := range chunks {
			stats.ExactEvals += evals[ci]
			out = append(out, founds[ci]...)
		}
		return nil
	}
	var err error
	for start := 0; start < len(groups) && err == nil; start += blockPages {
		if err = ctx.Err(); err != nil {
			break
		}
		end := min(start+blockPages, len(groups))
		if trace == nil {
			err = runBlock(start, end)
			continue
		}
		bspan := trace.Begin(span, "block")
		bReads, bEvals := reads.Value(), stats.ExactEvals
		if err = runBlock(start, end); err != nil {
			trace.Event(bspan, "error", obs.Str("error", err.Error()))
		}
		trace.End(bspan,
			obs.Int("block", int64(start/blockPages)),
			obs.Int("exact_evals", stats.ExactEvals-bEvals),
			obs.Int("reads", reads.Value()-bReads),
		)
	}
	stats.PageReads = reads.Value()
	core.SortMatches(out)
	endExec(trace, span, stats, err)
	return out, stats, err
}

// ExhaustiveSelect computes the spatial selection {a ∈ R | o θ a} by a full
// scan — the degenerate strategy I of §4.3. ctx is checked every ctxStride
// tuples.
func ExhaustiveSelect(ctx context.Context, r Table, o geom.Spatial, op pred.Operator) ([]int, Stats, error) {
	trace, span, ctx := execSpan(ctx, "scan")
	var stats Stats
	var out []int
	var reads obs.Counter
	var dst geom.Rect
	var err error
	for id := 0; id < r.Rel.Len(); id++ {
		if err = ctxStep(ctx, id); err != nil {
			break
		}
		var obj geom.Spatial
		if obj, err = r.read(id, &reads, &dst); err != nil {
			break
		}
		stats.ExactEvals++
		if op.Eval(o, obj) {
			out = append(out, id)
		}
	}
	stats.PageReads = reads.Value()
	endExec(trace, span, stats, err)
	return out, stats, err
}

// TreeSelect computes the spatial selection with algorithm SELECT over the
// generalization tree tr, reading a tuple from r where it is read
// (core.Node.ContainsTuple). A node that contains its tuple (§4.1: the tree
// nodes "contain the complete tuples") is read when examined; an R-tree
// item, whose MBR is in its leaf entry, only for θ, whose operand is the
// geometry read. Technical index nodes are free. ctx is checked during the
// descent per core.SelectOptions.Ctx.
func TreeSelect(ctx context.Context, tr core.Tree, r Table, o geom.Spatial, op pred.Operator,
	traversal core.Traversal) ([]int, Stats, error) {

	trace, span, ctx := execSpan(ctx, "treeselect")
	a := openAccount(r, Table{})
	defer a.close()
	opts := core.SelectOptions{Traversal: traversal, Ctx: ctx, Read: a.readR}
	if trace != nil {
		opts.Trace, opts.TraceParent, opts.TraceReads = trace, span, &a.reads
	}
	res, err := core.Select(tr, o, op, &opts)
	if err != nil {
		endExec(trace, span, Stats{PageReads: a.reads.Value()}, err)
		return nil, Stats{}, err
	}
	stats := Stats{FilterEvals: res.Stats.FilterEvals, ExactEvals: res.Stats.ExactEvals, PageReads: a.reads.Value()}
	endExec(trace, span, stats, nil)
	return res.Tuples, stats, nil
}

// TreeJoin computes R ⋈θ S with algorithm JOIN over two generalization
// trees, reading a tuple-bearing node's tuple from its table where it is
// read on either side: when it is examined if it contains its tuple, for θ
// if, like an R-tree item, it only references it, and then the geometry
// read is θ's operand (core.JoinOptions.ReadR). ctx is checked during the
// synchronized descent per core.JoinOptions.Ctx. A pair of childless nodes
// (two items) is decided by the level that forms it, so a traced join has
// no "level" span for the item depth, and its θ runs after that level's Θ
// filter in the paper's block schedule (core.Refine): the candidate pairs
// are cut, in R heap-page order, into blocks of at most m·(M−10) distinct
// R tuples (refineBlock), each block's R operands are read once, each R
// page released once decoded, and S's pages are swept once per block, in
// alternating directions, so a block's S sweep starts on the pages the
// last one left resident. The join runs on the calling goroutine.
// Stats.PageReads is the misses of this join's own reads, on one or two
// pools: a query running beside it can turn its misses into hits, never
// add to them.
func TreeJoin(ctx context.Context, trR core.Tree, r Table, trS core.Tree, s Table,
	op pred.Operator) ([]core.Match, Stats, error) {

	trace, span, ctx := execSpan(ctx, "treejoin")
	a := openAccount(r, s)
	defer a.close()
	opts := core.JoinOptions{
		ReadR:  a.readR,
		ReadS:  a.readS,
		PagesR: r.Rel,
		PagesS: s.Rel,
		Block:  refineBlock(r),
		Ctx:    ctx,
	}
	if trace != nil {
		opts.Trace, opts.TraceParent, opts.TraceReads = trace, span, &a.reads
	}
	res, err := core.Join(trR, trS, op, &opts)
	if err != nil {
		endExec(trace, span, Stats{PageReads: a.reads.Value()}, err)
		return nil, Stats{}, err
	}
	stats := Stats{FilterEvals: res.Stats.FilterEvals, ExactEvals: res.Stats.ExactEvals, PageReads: a.reads.Value()}
	core.SortMatches(res.Pairs)
	endExec(trace, span, stats, nil)
	return res.Pairs, stats, nil
}

// BuildIndex precomputes the Valduriez join index for R ⋈θ S by exhaustive
// evaluation — the expensive, update-hostile step strategy III amortizes.
// order is the B+-tree order (the paper's z).
func BuildIndex(r, s Table, op pred.Operator, order int) (*joinindex.Index, Stats, error) {
	ix, err := joinindex.New(order)
	if err != nil {
		return nil, Stats{}, err
	}
	var stats Stats
	var reads obs.Counter
	var dstR, dstS geom.Rect
	for rid := 0; rid < r.Rel.Len() && err == nil; rid++ {
		var robj, sobj geom.Spatial
		if robj, err = r.read(rid, &reads, &dstR); err != nil {
			break
		}
		for sid := 0; sid < s.Rel.Len() && err == nil; sid++ {
			if sobj, err = s.read(sid, &reads, &dstS); err != nil {
				break
			}
			stats.ExactEvals++
			if op.Eval(robj, sobj) {
				_, err = ix.Add(rid, sid)
			}
		}
	}
	stats.PageReads = reads.Value()
	return ix, stats, err
}

// IndexJoin computes the join from a precomputed index: read the pairs and
// read the corresponding tuples — no predicate evaluations at all. Index
// pages are charged per the B+-tree's fill (|J|/z), plus the tuple reads
// through the buffer pool, which core.Refine schedules as the tree join's
// θ reads are, without θ: in blocks of at most m·(M−10) distinct R tuples
// (refineBlock), each R tuple read once per block, its page released once
// decoded, and S's pages swept once per block in alternating directions —
// the retrieval D_III prices. The pair list comes from the B+-tree in
// canonical (R, S) order and is refined on the calling goroutine. ctx is
// checked before every read.
func IndexJoin(ctx context.Context, ix *joinindex.Index, r, s Table) ([]core.Match, Stats, error) {
	trace, span, ctx := execSpan(ctx, "indexjoin")
	a := openAccount(r, s)
	defer a.close()
	out := make([]core.Match, 0, ix.Len())
	ix.AllPairs(func(rid, sid int) bool {
		out = append(out, core.Match{R: rid, S: sid})
		return true
	})
	cs := make([]core.Candidate, len(out))
	for i := range out {
		cs[i] = core.Candidate{R: (*tupleRef)(&out[i].R), S: (*tupleRef)(&out[i].S)}
	}
	opts := &core.JoinOptions{
		ReadR:  a.readR,
		ReadS:  a.readS,
		PagesR: r.Rel,
		PagesS: s.Rel,
		Block:  refineBlock(r),
		Ctx:    ctx,
	}
	err := core.Refine(cs, nil, opts, &core.JoinResult{})
	stats := Stats{PageReads: a.reads.Value(), IndexReads: ix.Pages()}
	if err != nil {
		endExec(trace, span, stats, err)
		return nil, Stats{}, err
	}
	trace.Annotate(span, obs.Int("pairs", int64(len(out))))
	endExec(trace, span, stats, nil)
	return out, stats, nil
}

// refineBlock is how many distinct R tuples one block of core.Refine
// holds: the paper's m·(M−10), with m R's tuples per page (at least 1) and
// M the frames of R's pool — the R block strategy I loads (NestedLoop) and
// the cost model prices D_IIa and D_III with.
func refineBlock(r Table) int {
	m := 1
	if pages := r.Rel.NumPages(); pages > 0 {
		m = max(r.Rel.Len()/pages, 1)
	}
	return m * max(r.Pool.Capacity()-10, 1)
}

// tupleRef is a join-index pair's tuple as a core.Node: a tuple ID with
// no bounds, no children and its tuple only referenced, which is all
// core.Refine and Table.Reader ask of a candidate's nodes.
type tupleRef int

func (t *tupleRef) Bounds() geom.Rect    { return geom.Rect{} }
func (t *tupleRef) Object() geom.Spatial { return nil }
func (t *tupleRef) Tuple() (int, bool)   { return int(*t), true }
func (t *tupleRef) NumChildren() int     { return 0 }
func (t *tupleRef) Child(int) core.Node  { return nil }
func (t *tupleRef) ContainsTuple() bool  { return false }

// IndexSelect answers a spatial selection for a selector that is tuple rID
// of R, using the join index: look up its matches and read the S tuples.
func IndexSelect(ix *joinindex.Index, rID int, s Table) ([]int, Stats, error) {
	var out []int
	var reads obs.Counter
	var err error
	visits := ix.MatchesOfR(rID, func(sid int) bool {
		if _, err = s.read(sid, &reads, nil); err != nil {
			return false
		}
		out = append(out, sid)
		return true
	})
	if err != nil {
		return nil, Stats{}, err
	}
	return out, Stats{PageReads: reads.Value(), IndexReads: int64(visits)}, nil
}
