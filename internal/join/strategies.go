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
	"spatialjoin/internal/storage"
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
// measured across the whole join on the shared pool; with concurrent
// workers the LRU interleaving — and therefore the exact miss count — can
// differ from the sequential schedule.
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

	type rTuple struct {
		id  int
		obj geom.Spatial
	}
	reads, err := measure(r.Pool, func() error {
		runBlock := func(start, end int) error {
			// Load the block and decode its geometries once.
			var block []rTuple
			for _, g := range groups[start:end] {
				for _, id := range g.ids {
					obj, err := r.spatial(id)
					if err != nil {
						return err
					}
					block = append(block, rTuple{id: id, obj: obj})
				}
			}
			// One full scan of S per block, chunked over the workers.
			scan := func(lo, hi int) ([]core.Match, int64, error) {
				var found []core.Match
				var evals int64
				for sid := lo; sid < hi; sid++ {
					if err := ctxStep(ctx, sid); err != nil {
						return nil, evals, err
					}
					sobj, err := s.spatial(sid)
					if err != nil {
						return nil, evals, err
					}
					for _, rt := range block {
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
		for start := 0; start < len(groups); start += blockPages {
			if err := ctx.Err(); err != nil {
				return err
			}
			end := start + blockPages
			if end > len(groups) {
				end = len(groups)
			}
			if trace == nil {
				if err := runBlock(start, end); err != nil {
					return err
				}
				continue
			}
			bspan := trace.Begin(span, "block")
			bReads := r.Pool.Stats().Misses
			bEvals := stats.ExactEvals
			err := runBlock(start, end)
			if err != nil {
				trace.Event(bspan, "error", obs.Str("error", err.Error()))
			}
			trace.End(bspan,
				obs.Int("block", int64(start/blockPages)),
				obs.Int("exact_evals", stats.ExactEvals-bEvals),
				obs.Int("reads", r.Pool.Stats().Misses-bReads),
			)
			if err != nil {
				return err
			}
		}
		return nil
	})
	stats.PageReads = reads
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
	reads, err := measure(r.Pool, func() error {
		for id := 0; id < r.Rel.Len(); id++ {
			if err := ctxStep(ctx, id); err != nil {
				return err
			}
			obj, err := r.spatial(id)
			if err != nil {
				return err
			}
			stats.ExactEvals++
			if op.Eval(o, obj) {
				out = append(out, id)
			}
		}
		return nil
	})
	stats.PageReads = reads
	endExec(trace, span, stats, err)
	return out, stats, err
}

// TreeSelect computes the spatial selection with algorithm SELECT over the
// generalization tree tr, charging a page access where a tuple is read
// (core.Node.ContainsTuple). A node that contains its tuple (§4.1: the tree
// nodes "contain the complete tuples") is charged when examined; an R-tree
// item, whose MBR is in its leaf entry, only when θ reads it. Technical
// index nodes are free. ctx is checked during the descent per
// core.SelectOptions.Ctx.
func TreeSelect(ctx context.Context, tr core.Tree, r Table, o geom.Spatial, op pred.Operator,
	traversal core.Traversal) ([]int, Stats, error) {

	trace, span, ctx := execSpan(ctx, "treeselect")
	var stats Stats
	var res *core.SelectResult
	reads, err := measure(r.Pool, func() error {
		opts := &core.SelectOptions{
			Traversal: traversal,
			Ctx:       ctx,
			Touch: func(n core.Node) error {
				id, ok := n.Tuple()
				if !ok {
					return nil
				}
				return r.touch(id)
			},
		}
		if trace != nil {
			opts.Trace, opts.TraceParent = trace, span
			opts.TraceReads = func() int64 { return r.Pool.Stats().Misses }
		}
		var err error
		res, err = core.Select(tr, o, op, opts)
		return err
	})
	if err != nil {
		st := stats
		st.PageReads = reads
		endExec(trace, span, st, err)
		return nil, stats, err
	}
	stats.FilterEvals = res.Stats.FilterEvals
	stats.ExactEvals = res.Stats.ExactEvals
	stats.PageReads = reads
	endExec(trace, span, stats, nil)
	return res.Tuples, stats, nil
}

// TreeJoin computes R ⋈θ S with algorithm JOIN over two generalization
// trees, charging a page access where a tuple-bearing node's tuple is read
// on either side: when it is examined if it contains its tuple, before each
// θ evaluation it takes part in if, like an R-tree item, it only references
// it (core.JoinOptions.TouchR). ctx is checked during the synchronized
// descent per core.JoinOptions.Ctx. A pair of childless nodes (two items)
// is decided by the level that forms it, so a traced join has no "level"
// span for the item depth, and its θ runs after that level's Θ filter in
// (R, S) tuple-ID order: over a collection, whose IDs follow its heap
// appends, a run of θ evaluations keeps its R page and sweeps the S pages
// upward instead of fetching them in leaf-pair order. With workers > 1
// (≤ 0 meaning GOMAXPROCS) each QualPairs level is expanded by a worker
// pool. The contract across worker
// counts: the match set and the Θ and θ evaluation counts are identical to
// the sequential descent; Stats.PageReads is not, because the same touches
// reach the shared LRU pool in a different order and a small
// pool then evicts differently (with every page resident it is identical
// too).
func TreeJoin(ctx context.Context, trR core.Tree, r Table, trS core.Tree, s Table,
	op pred.Operator, workers int) ([]core.Match, Stats, error) {

	trace, span, ctx := execSpan(ctx, "treejoin")
	var stats Stats
	var res *core.JoinResult
	touch := func(t Table) func(core.Node) error {
		return func(n core.Node) error {
			id, ok := n.Tuple()
			if !ok {
				return nil
			}
			return t.touch(id)
		}
	}
	// The two tables may share a pool or use separate ones; measure both
	// without double counting.
	pools := []*poolDelta{newPoolDelta(r.Pool)}
	if s.Pool != r.Pool {
		pools = append(pools, newPoolDelta(s.Pool))
	}
	opts := &core.JoinOptions{
		TouchR:  touch(r),
		TouchS:  touch(s),
		Workers: parallel.Workers(workers),
		Ctx:     ctx,
	}
	if trace != nil {
		opts.Trace, opts.TraceParent = trace, span
		// Sample the same monotone miss counters poolDelta measures, so
		// the per-level "reads" attrs sum exactly to Stats.PageReads.
		opts.TraceReads = func() int64 {
			var n int64
			for _, pd := range pools {
				n += pd.pool.Stats().Misses
			}
			return n
		}
	}
	var err error
	res, err = core.Join(trR, trS, op, opts)
	if err != nil {
		st := stats
		for _, pd := range pools {
			st.PageReads += pd.delta()
		}
		endExec(trace, span, st, err)
		return nil, stats, err
	}
	for _, pd := range pools {
		stats.PageReads += pd.delta()
	}
	stats.FilterEvals = res.Stats.FilterEvals
	stats.ExactEvals = res.Stats.ExactEvals
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
	reads, err := measure(r.Pool, func() error {
		for rid := 0; rid < r.Rel.Len(); rid++ {
			robj, err := r.spatial(rid)
			if err != nil {
				return err
			}
			for sid := 0; sid < s.Rel.Len(); sid++ {
				sobj, err := s.spatial(sid)
				if err != nil {
					return err
				}
				stats.ExactEvals++
				if op.Eval(robj, sobj) {
					if _, err := ix.Add(rid, sid); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
	stats.PageReads = reads
	return ix, stats, err
}

// IndexJoin computes the join from a precomputed index: read the pairs and
// fetch the corresponding tuples — no predicate evaluations at all. Index
// pages are charged per the B+-tree's fill (|J|/z), plus the tuple fetches
// through the buffer pool. With workers > 1 (≤ 0 meaning GOMAXPROCS) the
// pair list is read sequentially from the B+-tree and the tuple probes are
// fanned out over contiguous chunks of it; the pair list itself is already
// in canonical (R, S) order. ctx is checked between probe chunks and every
// ctxStride pairs inside a chunk.
func IndexJoin(ctx context.Context, ix *joinindex.Index, r, s Table, workers int) ([]core.Match, Stats, error) {
	trace, span, ctx := execSpan(ctx, "indexjoin")
	var stats Stats
	pools := []*poolDelta{newPoolDelta(r.Pool)}
	if s.Pool != r.Pool {
		pools = append(pools, newPoolDelta(s.Pool))
	}
	out := make([]core.Match, 0, ix.Len())
	ix.AllPairs(func(rid, sid int) bool {
		out = append(out, core.Match{R: rid, S: sid})
		return true
	})
	_, err := parallel.RunChunksCtx(ctx, workers, len(out), func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := ctxStep(ctx, i); err != nil {
				return err
			}
			if err := r.touch(out[i].R); err != nil {
				return err
			}
			if err := s.touch(out[i].S); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		st := stats
		for _, pd := range pools {
			st.PageReads += pd.delta()
		}
		st.IndexReads = ix.Pages()
		endExec(trace, span, st, err)
		return nil, stats, err
	}
	for _, pd := range pools {
		stats.PageReads += pd.delta()
	}
	stats.IndexReads = ix.Pages()
	trace.Annotate(span, obs.Int("pairs", int64(len(out))))
	endExec(trace, span, stats, nil)
	return out, stats, nil
}

// IndexSelect answers a spatial selection for a selector that is tuple rID
// of R, using the join index: look up its matches and fetch the S tuples.
func IndexSelect(ix *joinindex.Index, rID int, s Table) ([]int, Stats, error) {
	var stats Stats
	var out []int
	var visits int
	reads, err := measure(s.Pool, func() error {
		var ferr error
		visits = ix.MatchesOfR(rID, func(sid int) bool {
			if err := s.touch(sid); err != nil {
				ferr = err
				return false
			}
			out = append(out, sid)
			return true
		})
		return ferr
	})
	if err != nil {
		return nil, stats, err
	}
	stats.PageReads = reads
	stats.IndexReads = int64(visits)
	return out, stats, nil
}

// poolDelta tracks a buffer pool's miss counter from a start point.
type poolDelta struct {
	pool  *storage.BufferPool
	start int64
}

func newPoolDelta(pool *storage.BufferPool) *poolDelta {
	return &poolDelta{pool: pool, start: pool.Stats().Misses}
}

// delta returns the physical reads since construction.
func (pd *poolDelta) delta() int64 { return pd.pool.Stats().Misses - pd.start }
