package spatialjoin

// This file is the benchmark harness of deliverable (d): one benchmark per
// table and figure of the paper's evaluation, plus measured-simulator
// counterparts and ablations of design choices. Analytic benchmarks
// re-evaluate the §4 cost formulas exactly as cmd/spatialbench prints them;
// measured benchmarks run the executable strategies on the simulated disk
// and report cost-model units via b.ReportMetric.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/costmodel"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/join"
	"spatialjoin/internal/localindex"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/pred"
	"spatialjoin/internal/relation"
	"spatialjoin/internal/rtree"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/zorder"
)

// --- Table 1: θ/Θ operator evaluation -----------------------------------

func BenchmarkTable1ThetaOperators(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	objs := make([]geom.Rect, 256)
	for i := range objs {
		x, y := rng.Float64()*100, rng.Float64()*100
		objs[i] = geom.NewRect(x, y, x+rng.Float64()*10, y+rng.Float64()*10)
	}
	for _, op := range pred.Table1() {
		b.Run(op.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := objs[i%len(objs)]
				c := objs[(i*7+3)%len(objs)]
				op.Eval(a, c)
				op.Filter(a.Bounds(), c.Bounds())
			}
		})
	}
}

// --- Figure 1 substrate: z-ordering --------------------------------------

func BenchmarkFig1ZOrderDecompose(b *testing.B) {
	g, err := zorder.NewGrid(geom.NewRect(0, 0, 1024, 1024), 10)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	rects := datagen.UniformRects(rng, 512, geom.NewRect(0, 0, 1024, 1024), 2, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Decompose(rects[i%len(rects)])
	}
}

func BenchmarkFig1ZOrderMergeJoin(b *testing.B) {
	world := geom.NewRect(0, 0, 1024, 1024)
	g, err := zorder.NewGrid(world, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	rs := datagen.UniformRects(rng, 500, world, 2, 40)
	ss := datagen.UniformRects(rng, 500, world, 2, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.OverlapJoin(rs, ss, zorder.JoinOptions{Dedup: true, Exact: true})
	}
}

// BenchmarkZOverlapParallelJoin measures the tile-partitioned parallel
// z-order join. Workers = 0 resolves to GOMAXPROCS, so
//
//	go test -bench=ZOverlap -cpu=1,4
//
// compares the sequential schedule against a 4-worker run of the same
// join; the match count is reported so the runs are checkably identical.
func BenchmarkZOverlapParallelJoin(b *testing.B) {
	world := geom.NewRect(0, 0, 4096, 4096)
	rng := rand.New(rand.NewSource(17))
	rs := datagen.UniformRects(rng, 4000, world, 2, 30)
	ss := datagen.UniformRects(rng, 4000, world, 2, 30)
	var matches int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, err := ZOverlapJoinCtx(context.Background(), rs, ss, world, 9, 0)
		if err != nil {
			b.Fatal(err)
		}
		matches = len(ms)
	}
	b.ReportMetric(float64(matches), "matches")
}

// --- Figure 7: ρ profiles -------------------------------------------------

func BenchmarkFig7RhoProfiles(b *testing.B) {
	prm := costmodel.PaperParams()
	for _, dist := range costmodel.Distributions() {
		b.Run(dist.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := costmodel.Fig7(prm, dist, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §4.2: update costs ----------------------------------------------------

func BenchmarkUpdateCosts(b *testing.B) {
	m := costmodel.MustModel(costmodel.PaperParams(), costmodel.Uniform, 0.5)
	var sink costmodel.UpdateCosts
	for i := 0; i < b.N; i++ {
		sink = m.UpdateCosts()
	}
	b.ReportMetric(sink.UIII/sink.UIIb, "UIII/UIIb")
}

// --- Figures 8–10: analytic SELECT sweeps ---------------------------------

func benchSelectFigure(b *testing.B, dist costmodel.DistKind) {
	prm := costmodel.PaperParams()
	ps, err := costmodel.LogSpace(1e-6, 1, 41)
	if err != nil {
		b.Fatal(err)
	}
	var series []costmodel.Series
	for i := 0; i < b.N; i++ {
		series, err = costmodel.SelectFigure(prm, dist, ps, prm.H)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the headline number of the figure: the best clustered-tree
	// advantage over the unclustered tree across the sweep.
	iia, _ := costmodel.SeriesByName(series, "C_IIa")
	iib, _ := costmodel.SeriesByName(series, "C_IIb")
	best := 0.0
	for i := range iia.Y {
		if r := iia.Y[i] / iib.Y[i]; r > best {
			best = r
		}
	}
	b.ReportMetric(best, "max_CIIa/CIIb")
}

func BenchmarkFig8SelectUniform(b *testing.B) { benchSelectFigure(b, costmodel.Uniform) }
func BenchmarkFig9SelectNoLoc(b *testing.B)   { benchSelectFigure(b, costmodel.NoLoc) }
func BenchmarkFig10SelectHiLoc(b *testing.B)  { benchSelectFigure(b, costmodel.HiLoc) }

// --- Figures 11–13: analytic JOIN sweeps -----------------------------------

func benchJoinFigure(b *testing.B, dist costmodel.DistKind) {
	prm := costmodel.PaperParams()
	ps, err := costmodel.LogSpace(1e-12, 1, 49)
	if err != nil {
		b.Fatal(err)
	}
	var series []costmodel.Series
	for i := 0; i < b.N; i++ {
		series, err = costmodel.JoinFigure(prm, dist, ps)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the crossover selectivity (the figure's headline), when any.
	iia, _ := costmodel.SeriesByName(series, "D_IIa")
	iii, _ := costmodel.SeriesByName(series, "D_III")
	if x, ok := costmodel.Crossover(iia, iii); ok {
		// Report -log10(p) so sub-1e-6 crossovers stay readable in the
		// fixed-precision metric column (9.5 ⇒ p ≈ 3e-10).
		b.ReportMetric(-math.Log10(x), "crossover_neg_log10_p")
	}
}

func BenchmarkFig11JoinUniform(b *testing.B) { benchJoinFigure(b, costmodel.Uniform) }
func BenchmarkFig12JoinNoLoc(b *testing.B)   { benchJoinFigure(b, costmodel.NoLoc) }
func BenchmarkFig13JoinHiLoc(b *testing.B)   { benchJoinFigure(b, costmodel.HiLoc) }

// --- Measured counterparts: strategies on the simulated disk ---------------

// benchWorkload loads a k-ary model tree into a relation on a fresh pool.
func benchWorkload(b *testing.B, pool *storage.BufferPool, seed int64, k, height int,
	placement relation.Placement) (join.Table, core.Tree) {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	world := geom.NewRect(0, 0, 1000, 1000)
	tree, n := datagen.ModelTree(rng, world, k, height)
	rects := make([]geom.Rect, n)
	core.Walk(tree, func(nd core.Node, _ int) bool {
		if id, ok := nd.Tuple(); ok {
			rects[id] = nd.Bounds()
		}
		return true
	})
	sch, err := relation.NewSchema(
		relation.Column{Name: "id", Type: relation.TypeInt64},
		relation.Column{Name: "mbr", Type: relation.TypeRect},
	)
	if err != nil {
		b.Fatal(err)
	}
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{int64(i), rects[i]}
	}
	rel, err := relation.BulkLoad(pool, "bench", sch, tuples, placement, 0.75, seed)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := join.NewTable(rel, 1, pool)
	if err != nil {
		b.Fatal(err)
	}
	return tab, tree
}

func newBenchPool(b *testing.B, capacity int) *storage.BufferPool {
	b.Helper()
	pool, err := storage.NewBufferPool(storage.NewDisk(2000), capacity)
	if err != nil {
		b.Fatal(err)
	}
	return pool
}

func BenchmarkMeasuredSelect(b *testing.B) {
	for _, layout := range []struct {
		name      string
		placement relation.Placement
	}{
		{"clustered_IIb", relation.PlaceSequential},
		{"unclustered_IIa", relation.PlaceShuffled},
	} {
		b.Run(layout.name, func(b *testing.B) {
			pool := newBenchPool(b, 16)
			tab, tree := benchWorkload(b, pool, 1, 5, 4, layout.placement)
			q := geom.NewRect(100, 100, 420, 420)
			var total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pool.DropAll(); err != nil {
					b.Fatal(err)
				}
				_, stats, err := join.TreeSelect(context.Background(), tree, tab, q, pred.Overlaps{}, core.BreadthFirst)
				if err != nil {
					b.Fatal(err)
				}
				total += stats.PageReads
			}
			b.ReportMetric(float64(total)/float64(b.N), "page_reads/op")
		})
	}
}

func BenchmarkMeasuredJoin(b *testing.B) {
	pool := newBenchPool(b, 64)
	r, trR := benchWorkload(b, pool, 2, 4, 3, relation.PlaceSequential)
	s, trS := benchWorkload(b, pool, 3, 4, 3, relation.PlaceSequential)
	op := pred.Overlaps{}

	b.Run("nested_loop_I", func(b *testing.B) {
		var cost float64
		for i := 0; i < b.N; i++ {
			if err := pool.DropAll(); err != nil {
				b.Fatal(err)
			}
			_, stats, err := join.NestedLoop(context.Background(), r, s, op, 1)
			if err != nil {
				b.Fatal(err)
			}
			cost = stats.Cost(1, 1000)
		}
		b.ReportMetric(cost, "model_cost")
	})
	b.Run("tree_II", func(b *testing.B) {
		var cost float64
		for i := 0; i < b.N; i++ {
			if err := pool.DropAll(); err != nil {
				b.Fatal(err)
			}
			_, stats, err := join.TreeJoin(context.Background(), trR, r, trS, s, op)
			if err != nil {
				b.Fatal(err)
			}
			cost = stats.Cost(1, 1000)
		}
		b.ReportMetric(cost, "model_cost")
	})
	b.Run("join_index_III", func(b *testing.B) {
		ix, _, err := join.BuildIndex(r, s, op, 100)
		if err != nil {
			b.Fatal(err)
		}
		var cost float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pool.DropAll(); err != nil {
				b.Fatal(err)
			}
			_, stats, err := join.IndexJoin(context.Background(), ix, r, s)
			if err != nil {
				b.Fatal(err)
			}
			cost = stats.Cost(1, 1000)
		}
		b.ReportMetric(cost, "model_cost")
	})
}

func BenchmarkMeasuredUpdate(b *testing.B) {
	// The measured face of §4.2: cost of one insert with and without a
	// join index to maintain.
	mk := func(withIndex bool) func(b *testing.B) {
		return func(b *testing.B) {
			db, err := Open(DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			rc, _ := db.CreateCollection("r")
			sc, _ := db.CreateCollection("s")
			rng := rand.New(rand.NewSource(4))
			for i := 0; i < 300; i++ {
				x, y := rng.Float64()*900, rng.Float64()*900
				rc.Insert(NewRect(x, y, x+10, y+10), "r")
				sc.Insert(NewRect(x+5, y+5, x+15, y+15), "s")
			}
			if withIndex {
				if _, _, err := db.BuildJoinIndex(rc, sc, Overlaps()); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := float64(i%900) + rng.Float64()
				if _, err := rc.Insert(NewRect(x, x, x+8, x+8), "new"); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("tree_only_UII", mk(false))
	b.Run("with_join_index_UIII", mk(true))
}

// --- Observability overhead on the Figure-8 workload -----------------------

// BenchmarkFig8TraceOverhead prices the tracing hooks on the measured
// Figure-8 select workload. "uninstrumented" replicates the executor's
// pre-hook call path (measure + core.Select with no trace options) as the
// baseline; "nil_trace" is the shipped off-by-default path (a context
// lookup plus nil checks, the state every un-traced query pays); and
// "full_trace" arms a fresh trace per query. The nil_trace column must
// stay within 2% of the baseline — spatialbench -what trace prints the
// same comparison as a table.
func BenchmarkFig8TraceOverhead(b *testing.B) {
	pool := newBenchPool(b, 16)
	tab, tree := benchWorkload(b, pool, 1, 5, 4, relation.PlaceShuffled)
	q := geom.NewRect(100, 100, 420, 420)
	op := pred.Overlaps{}

	b.Run("uninstrumented", func(b *testing.B) {
		opts := &core.SelectOptions{Traversal: core.BreadthFirst, Read: tab.Reader(nil)}
		var reads int64
		for i := 0; i < b.N; i++ {
			if err := pool.DropAll(); err != nil {
				b.Fatal(err)
			}
			before := pool.Stats().Misses
			if _, err := core.Select(tree, q, op, opts); err != nil {
				b.Fatal(err)
			}
			reads = pool.Stats().Misses - before
		}
		b.ReportMetric(float64(reads), "page_reads")
	})
	b.Run("nil_trace", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if err := pool.DropAll(); err != nil {
				b.Fatal(err)
			}
			if _, _, err := join.TreeSelect(ctx, tree, tab, q, op, core.BreadthFirst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full_trace", func(b *testing.B) {
		var spans int
		for i := 0; i < b.N; i++ {
			if err := pool.DropAll(); err != nil {
				b.Fatal(err)
			}
			ctx, trace := obs.WithTrace(context.Background())
			if _, _, err := join.TreeSelect(ctx, tree, tab, q, op, core.BreadthFirst); err != nil {
				b.Fatal(err)
			}
			spans = len(trace.Spans())
		}
		b.ReportMetric(float64(spans), "spans")
	})
}

// --- Ablations of design choices -------------------------------------------

func BenchmarkAblationSelectTraversal(b *testing.B) {
	pool := newBenchPool(b, 32)
	tab, tree := benchWorkload(b, pool, 6, 4, 4, relation.PlaceSequential)
	q := geom.NewRect(50, 50, 300, 300)
	for _, trav := range []struct {
		name string
		t    core.Traversal
	}{{"breadth_first", core.BreadthFirst}, {"depth_first", core.DepthFirst}} {
		b.Run(trav.name, func(b *testing.B) {
			var reads int64
			for i := 0; i < b.N; i++ {
				if err := pool.DropAll(); err != nil {
					b.Fatal(err)
				}
				_, stats, err := join.TreeSelect(context.Background(), tree, tab, q, pred.Overlaps{}, trav.t)
				if err != nil {
					b.Fatal(err)
				}
				reads += stats.PageReads
			}
			b.ReportMetric(float64(reads)/float64(b.N), "page_reads/op")
		})
	}
}

// BenchmarkAblationLocalIndexLambda sweeps the anchor level of the paper's
// §5 "local join index" extension across a self-join, from λ=0 (one global
// join index, strategy III) to λ past the leaves (pure tree join, strategy
// II), reporting the live-evaluation count at each point of the mixture.
func BenchmarkAblationLocalIndexLambda(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	tree, _ := datagen.ModelTree(rng, geom.NewRect(0, 0, 1000, 1000), 4, 3)
	op := pred.Overlaps{}
	for lambda := 0; lambda <= 4; lambda++ {
		b.Run(fmt.Sprintf("lambda_%d", lambda), func(b *testing.B) {
			ix, _, err := localindex.Build(tree, op, lambda, 100, nil)
			if err != nil {
				b.Fatal(err)
			}
			var stats localindex.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats, err = ix.SelfJoin()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.FilterEvals+stats.ExactEvals), "live_evals")
			b.ReportMetric(float64(ix.Pairs()), "stored_pairs")
		})
	}
}

// BenchmarkAblationBulkLoad compares STR bulk loading against one-at-a-time
// insertion: build time and the directory quality (nodes visited per window
// query) of the resulting trees.
func BenchmarkAblationBulkLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	world := geom.NewRect(0, 0, 1000, 1000)
	rects := datagen.UniformRects(rng, 5000, world, 1, 20)
	items := make([]rtree.Item, len(rects))
	for i, r := range rects {
		items[i] = rtree.Item{Rect: r, ID: i}
	}
	opts := rtree.Options{MinEntries: 4, MaxEntries: 8}
	query := geom.NewRect(300, 300, 500, 500)

	b.Run("insert_built", func(b *testing.B) {
		var visits int
		for i := 0; i < b.N; i++ {
			tr := rtree.MustNew(opts)
			for _, it := range items {
				tr.Insert(it.Rect, it.ID)
			}
			visits = tr.Search(query, func(rtree.Item) bool { return true })
		}
		b.ReportMetric(float64(visits), "nodes_visited")
	})
	b.Run("str_bulk_loaded", func(b *testing.B) {
		var visits int
		for i := 0; i < b.N; i++ {
			tr, err := rtree.BulkLoad(opts, items)
			if err != nil {
				b.Fatal(err)
			}
			visits = tr.Search(query, func(rtree.Item) bool { return true })
		}
		b.ReportMetric(float64(visits), "nodes_visited")
	})
}

func BenchmarkAblationZOrderDedup(b *testing.B) {
	world := geom.NewRect(0, 0, 1024, 1024)
	g, err := zorder.NewGrid(world, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	rs := datagen.UniformRects(rng, 400, world, 10, 80)
	ss := datagen.UniformRects(rng, 400, world, 10, 80)
	for _, opt := range []struct {
		name string
		o    zorder.JoinOptions
	}{
		{"raw_duplicates", zorder.JoinOptions{Dedup: false, Exact: true}},
		{"deduplicated", zorder.JoinOptions{Dedup: true, Exact: true}},
	} {
		b.Run(opt.name, func(b *testing.B) {
			var dup int
			for i := 0; i < b.N; i++ {
				_, stats := g.OverlapJoin(rs, ss, opt.o)
				dup = stats.Duplicates
			}
			b.ReportMetric(float64(dup), "duplicate_reports")
		})
	}
}

func BenchmarkAblationZOrderGridLevel(b *testing.B) {
	world := geom.NewRect(0, 0, 1024, 1024)
	rng := rand.New(rand.NewSource(8))
	rs := datagen.UniformRects(rng, 300, world, 5, 60)
	ss := datagen.UniformRects(rng, 300, world, 5, 60)
	for _, level := range []uint{4, 6, 8, 10} {
		g, err := zorder.NewGrid(world, level)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("level_%02d", level), func(b *testing.B) {
			var elems int
			for i := 0; i < b.N; i++ {
				_, stats := g.OverlapJoin(rs, ss, zorder.JoinOptions{Dedup: true, Exact: true})
				elems = stats.ElementsR + stats.ElementsS
			}
			b.ReportMetric(float64(elems), "z_elements")
		})
	}
}

// BenchmarkFig8RecorderOverhead prices the always-on flight recorder on
// the measured Figure-8 workload. "record_event" is one live emission
// into the ring (the marginal cost every recorded event pays; must be
// allocation-free); "record_event_nil" is the nil-recorder floor (what a
// compiled-out hook would cost); "query_always_on" runs the full query
// path with the recorder armed exactly as it ships — per-query overhead
// is events/query × record_event, which must keep the always-on path
// within 2% of an uninstrumented build. EXPERIMENTS.md tabulates the
// measured numbers.
func BenchmarkFig8RecorderOverhead(b *testing.B) {
	b.Run("record_event", func(b *testing.B) {
		r := obs.NewRecorder(4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Record(obs.RecQueryFinish, obs.RecCodeOK, uint64(i), int64(i), 0)
		}
	})
	b.Run("record_event_nil", func(b *testing.B) {
		var r *obs.Recorder
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Record(obs.RecQueryFinish, obs.RecCodeOK, uint64(i), int64(i), 0)
		}
	})
	b.Run("query_always_on", func(b *testing.B) {
		db, err := Open(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		rc, err := db.CreateCollection("r")
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < 500; i++ {
			x, y := rng.Float64()*900, rng.Float64()*900
			if _, err := rc.Insert(NewRect(x, y, x+10, y+10), ""); err != nil {
				b.Fatal(err)
			}
		}
		q := NewRect(100, 100, 420, 420)
		ctx := context.Background()
		// Sequence numbers are global and monotonic, so the emitted-event
		// count stays exact even after the ring wraps.
		maxSeq := func() uint64 {
			var m uint64
			for _, e := range obs.Events() {
				if e.Seq > m {
					m = e.Seq
				}
			}
			return m
		}
		before := maxSeq()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := db.SelectContext(ctx, rc, q, Overlaps(), TreeStrategy); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(maxSeq()-before)/float64(b.N), "events/query")
	})
}
