// Command spatialbench regenerates the paper's evaluation (§4.5): the cost
// curves of Figures 8–13, the ρ profiles of Figure 7, the update-cost
// comparison of §4.2 and the Table 2/3 parameter block — all from the
// analytical model in internal/costmodel.
//
// Usage:
//
//	spatialbench -what all
//	spatialbench -what fig11 -points 25
//	spatialbench -what updates
//
// Output is aligned text: one row per selectivity, one column per strategy,
// matching the series the paper plots. Crossover points are summarized
// under each join figure.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"spatialjoin"
	"spatialjoin/cmd/internal/cli"
	"spatialjoin/internal/core"
	"spatialjoin/internal/costmodel"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/fault"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/join"
	"spatialjoin/internal/modelcheck"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/pred"
	"spatialjoin/internal/relation"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/zorder"
)

func main() {
	what := flag.String("what", "all",
		"what to print: params, fig1, fig7, fig8, fig9, fig10, fig11, fig12, fig13, updates, validate, scaling, faults, wal, repl, trace, all (scaling, faults, wal, repl and trace are measured, not analytic, and are excluded from all)")
	points := flag.Int("points", 13, "selectivity samples per figure")
	pmin := flag.Float64("pmin", 1e-12, "smallest selectivity for join figures")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"largest worker count in the -what scaling table")
	timeout := flag.Duration("timeout", 0, "per-query deadline in the -what faults table (0 = none)")
	faultSeed := flag.Int64("fault-seed", 11, "seed of the injected fault schedule in -what faults")
	faultRate := flag.Float64("fault-rate", 0.2, "largest transient fault rate swept by -what faults")
	walGroup := flag.Int("wal-group", 8, "group-commit size in the -what wal table")
	crashAt := flag.Int64("crash-at", 0, "with -what wal: crash after this many physical writes, then recover")
	doRecover := flag.Bool("recover", false, "with -what wal: run the crash/recovery cycle and print its ledger")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars, and pprof on this address; measured runs feed the registry")
	serveFor := flag.Duration("serve-for", 0, "with -metrics-addr: keep serving this long after the run completes")
	flag.Parse()

	o := benchOpts{
		what:      *what,
		points:    *points,
		pmin:      *pmin,
		workers:   *workers,
		timeout:   *timeout,
		faultSeed: *faultSeed,
		faultRate: *faultRate,
		walGroup:  *walGroup,
		crashAt:   *crashAt,
		doRecover: *doRecover,
	}
	if *metricsAddr != "" {
		o.metrics = obs.NewRegistry()
	}
	stopMetrics, err := cli.ServeMetrics(os.Stdout, "spatialbench", *metricsAddr, o.metrics)
	if err == nil {
		defer stopMetrics()
		err = run(os.Stdout, costmodel.PaperParams(), o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spatialbench:", err)
		os.Exit(1)
	}
	cli.Linger(*metricsAddr, *serveFor)
}

// benchOpts collects run's knob surface; metrics, when non-nil, is the
// registry the measured figures attach to the databases they open.
type benchOpts struct {
	what      string
	points    int
	pmin      float64
	workers   int
	timeout   time.Duration
	faultSeed int64
	faultRate float64
	walGroup  int
	crashAt   int64
	doRecover bool
	metrics   *obs.Registry
}

func run(out io.Writer, prm costmodel.Params, o benchOpts) error {
	figures := map[string]func() error{
		"params":   func() error { return printParams(out, prm) },
		"fig1":     func() error { return printFig1(out) },
		"fig7":     func() error { return printFig7(out, prm) },
		"fig8":     func() error { return printSelectFigure(out, prm, costmodel.Uniform, o.points) },
		"fig9":     func() error { return printSelectFigure(out, prm, costmodel.NoLoc, o.points) },
		"fig10":    func() error { return printSelectFigure(out, prm, costmodel.HiLoc, o.points) },
		"fig11":    func() error { return printJoinFigure(out, prm, costmodel.Uniform, o.points, o.pmin) },
		"fig12":    func() error { return printJoinFigure(out, prm, costmodel.NoLoc, o.points, o.pmin) },
		"fig13":    func() error { return printJoinFigure(out, prm, costmodel.HiLoc, o.points, o.pmin) },
		"updates":  func() error { return printUpdates(out, prm) },
		"validate": func() error { return printValidate(out) },
		"scaling":  func() error { return printScaling(out, o.workers) },
		"faults":   func() error { return printFaults(out, o.faultSeed, o.faultRate, o.timeout, o.metrics) },
		"wal":      func() error { return printWAL(out, o.faultSeed, o.walGroup, o.crashAt, o.doRecover) },
		"repl":     func() error { return printRepl(out, o.faultSeed) },
		"trace":    func() error { return printTraceOverhead(out) },
	}
	if o.what != "all" {
		f, ok := figures[o.what]
		if !ok {
			return fmt.Errorf("unknown -what %q", o.what)
		}
		return f()
	}
	for _, name := range []string{"params", "updates", "fig1", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "validate"} {
		if err := figures[name](); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

func printParams(out io.Writer, prm costmodel.Params) error {
	fmt.Fprintln(out, "== Table 2/3: model parameters ==")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "n (tree height)\t%d\n", prm.Nlevels)
	fmt.Fprintf(w, "k (fanout)\t%d\n", prm.K)
	fmt.Fprintf(w, "v (tuple bytes)\t%.0f\n", prm.V)
	fmt.Fprintf(w, "l (utilization)\t%.2f\n", prm.L)
	fmt.Fprintf(w, "h (selector level)\t%d\n", prm.H)
	fmt.Fprintf(w, "T (spatial tuples)\t%.0f\n", prm.T)
	fmt.Fprintf(w, "s (page bytes)\t%.0f\n", prm.S)
	fmt.Fprintf(w, "z (index entries/page)\t%.0f\n", prm.Z)
	fmt.Fprintf(w, "M (buffer pages)\t%.0f\n", prm.M)
	fmt.Fprintf(w, "C_Θ / C_IO / C_U\t%.0f / %.0f / %.0f\n", prm.CTheta, prm.CIO, prm.CU)
	fmt.Fprintf(w, "N (derived)\t%.0f\n", prm.N())
	fmt.Fprintf(w, "m (derived)\t%.0f\n", prm.Mtuples())
	fmt.Fprintf(w, "d (derived)\t%.0f\n", prm.D())
	return w.Flush()
}

func printUpdates(out io.Writer, prm costmodel.Params) error {
	m, err := costmodel.NewModel(prm, costmodel.Uniform, 0.5)
	if err != nil {
		return err
	}
	uc := m.UpdateCosts()
	fmt.Fprintln(out, "== §4.2: insertion costs per strategy (time units) ==")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "U_I (nested loop)\t%.4g\t\n", uc.UI)
	fmt.Fprintf(w, "U_IIa (unclustered tree)\t%.4g\t\n", uc.UIIa)
	fmt.Fprintf(w, "U_IIb (clustered tree)\t%.4g\t\n", uc.UIIb)
	fmt.Fprintf(w, "U_III (join index, all T)\t%.4g\t\n", uc.UIII)
	return w.Flush()
}

func printFig7(out io.Writer, prm costmodel.Params) error {
	fmt.Fprintln(out, "== Figure 7: ρ(o1, o2) with o1 the leftmost leaf (p = 0.5) ==")
	for _, dist := range costmodel.Distributions() {
		series, err := costmodel.Fig7(prm, dist, 0.5)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "-- %v --\n", dist)
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintf(w, "level\tfirst ρ\tρ@idx1\tρ@idx k\tlast ρ\t\n")
		for level, s := range series {
			n := len(s.Y)
			atIdx := func(i int) float64 {
				if i >= n {
					i = n - 1
				}
				return s.Y[i]
			}
			fmt.Fprintf(w, "%d\t%.3g\t%.3g\t%.3g\t%.3g\t\n",
				level, s.Y[0], atIdx(1), atIdx(prm.K), s.Y[n-1])
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func printSelectFigure(out io.Writer, prm costmodel.Params, dist costmodel.DistKind, points int) error {
	fig := map[costmodel.DistKind]string{
		costmodel.Uniform: "Figure 8", costmodel.NoLoc: "Figure 9", costmodel.HiLoc: "Figure 10",
	}[dist]
	fmt.Fprintf(out, "== %s: SELECT cost vs selectivity, %v distribution (h = n = %d) ==\n",
		fig, dist, prm.Nlevels)
	ps, err := costmodel.LogSpace(1e-6, 1, points)
	if err != nil {
		return err
	}
	series, err := costmodel.SelectFigure(prm, dist, ps, prm.H)
	if err != nil {
		return err
	}
	return printSeriesTable(out, ps, series, []string{"C_I", "C_IIa", "C_IIb", "C_III"})
}

func printJoinFigure(out io.Writer, prm costmodel.Params, dist costmodel.DistKind, points int, pmin float64) error {
	fig := map[costmodel.DistKind]string{
		costmodel.Uniform: "Figure 11", costmodel.NoLoc: "Figure 12", costmodel.HiLoc: "Figure 13",
	}[dist]
	fmt.Fprintf(out, "== %s: JOIN cost vs selectivity, %v distribution ==\n", fig, dist)
	ps, err := costmodel.LogSpace(pmin, 1, points)
	if err != nil {
		return err
	}
	series, err := costmodel.JoinFigure(prm, dist, ps)
	if err != nil {
		return err
	}
	if err := printSeriesTable(out, ps, series, []string{"D_I", "D_IIa", "D_IIb", "D_III"}); err != nil {
		return err
	}
	// Crossover summary: where the join index overtakes the trees.
	dIII, _ := costmodel.SeriesByName(series, "D_III")
	for _, tree := range []string{"D_IIa", "D_IIb"} {
		ts, _ := costmodel.SeriesByName(series, tree)
		if x, ok := costmodel.Crossover(ts, dIII); ok {
			fmt.Fprintf(out, "   crossover %s vs D_III near p = %.2g (join index wins below)\n", tree, x)
		} else {
			fmt.Fprintf(out, "   no crossover between %s and D_III in range\n", tree)
		}
	}
	return nil
}

func printSeriesTable(out io.Writer, ps []float64, series []costmodel.Series, names []string) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "p\t%s\t\n", strings.Join(names, "\t"))
	cols := make([]costmodel.Series, len(names))
	for i, name := range names {
		s, ok := costmodel.SeriesByName(series, name)
		if !ok {
			return fmt.Errorf("missing series %s", name)
		}
		cols[i] = s
	}
	for i, p := range ps {
		row := make([]string, len(cols))
		for c := range cols {
			row[c] = fmt.Sprintf("%.4g", cols[c].Y[i])
		}
		fmt.Fprintf(w, "%.3g\t%s\t\n", p, strings.Join(row, "\t"))
	}
	return w.Flush()
}

// printValidate compares the model's computation-cost formulas against the
// live algorithms on a small idealized tree (see internal/modelcheck): the
// SELECT formula is exact in expectation under the model's assumptions; the
// JOIN formula is the paper's acknowledged overestimate.
func printValidate(out io.Writer) error {
	prm := costmodel.PaperParams()
	prm.K = 4
	prm.Nlevels = 4
	prm.H = 4
	prm.T = 341
	fmt.Fprintln(out, "== Model validation: measured Θ evaluations vs formulas (k=4, n=4, 341 nodes) ==")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "distribution\tp\tC_IIΘ predicted\tSELECT measured\tratio\tD_IIΘ predicted\tJOIN measured\tratio\t\n")
	for _, dist := range costmodel.Distributions() {
		for _, p := range []float64{0.1, 0.5, 1} {
			m, err := costmodel.NewModel(prm, dist, p)
			if err != nil {
				return err
			}
			sel, err := modelcheck.MeasureSelect(m, 40)
			if err != nil {
				return err
			}
			jn, err := modelcheck.MeasureJoin(m, 5)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%v\t%.2g\t%.1f\t%.1f\t%.2f\t%.4g\t%.4g\t%.2f\t\n",
				dist, p, sel.Predicted, sel.Measured, sel.Ratio(),
				jn.Predicted, jn.Measured, jn.Ratio())
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	const frames, order = 16, 100
	fmt.Fprintf(out, "\n== Strategy III retrieval: tuple pages read vs D_III's (R, S = two stored copies, M=%d frames, z=%d, cold pool) ==\n",
		frames, order)
	w = tabwriter.NewWriter(out, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "distribution\tp\t|J|\tD_III tuple pages\tmeasured\tratio\t\n")
	for _, dist := range costmodel.Distributions() {
		for _, p := range []float64{0.1, 0.5, 1} {
			m, err := costmodel.NewModel(prm, dist, p)
			if err != nil {
				return err
			}
			ij, pairs, err := modelcheck.MeasureIndexJoin(m, frames, order)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%v\t%.2g\t%d\t%.1f\t%.0f\t%.2f\t\n",
				dist, p, pairs, ij.Predicted, ij.Measured, ij.Ratio())
		}
	}
	return w.Flush()
}

// printFig1 renders Figure 1's 8×8 Peano grid: each cell labelled with its
// position in the z-order sequence, demonstrating that spatially adjacent
// cells (e.g. across the horizontal midline) are far apart along the curve
// — the property that defeats sort-merge for spatial data.
func printFig1(out io.Writer) error {
	g, err := zorder.NewGrid(geom.NewRect(0, 0, 8, 8), 3)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== Figure 1: z-ordering of an 8×8 grid (cell = position in Peano sequence) ==")
	for y := 7; y >= 0; y-- {
		for x := 0; x < 8; x++ {
			z := g.CellIndex(geom.Pt(float64(x)+0.5, float64(y)+0.5))
			fmt.Fprintf(out, "%3d", z)
		}
		fmt.Fprintln(out)
	}
	below := g.CellIndex(geom.Pt(0.5, 3.5))
	above := g.CellIndex(geom.Pt(0.5, 4.5))
	fmt.Fprintf(out, "adjacent cells (0,3)=%d and (0,4)=%d are %d sequence positions apart —\n",
		below, above, int64(above)-int64(below))
	fmt.Fprintln(out, "no spatial total order preserves proximity (§2.2), so sort-merge fails")
	fmt.Fprintln(out, "for every θ except overlaps (see examples/zordermerge).")
	return nil
}

// printFaults measures the live retry overhead of the fault-tolerant
// storage stack: the same tree join runs cold over devices injecting
// transient faults at rates {0, r/4, r/2, r}, and the table reports wall
// time, the pool's retry counts, and the device's faulted attempts. The
// match count must be identical on every row — recovery is only allowed to
// cost time, never correctness. Measured on this machine, not derived from
// the cost model. A non-nil registry is attached to every database the
// sweep opens, so -metrics-addr exposes the run's pool, query, and
// parallel-pool families while it executes; the registry's samplers are
// get-or-create by name, so the most recently opened database is the one
// a scrape observes (the rows run sequentially, which is what a scraper
// watching the sweep wants).
func printFaults(out io.Writer, seed int64, maxRate float64, timeout time.Duration, reg *obs.Registry) error {
	if maxRate < 0 || maxRate >= 1 {
		return fmt.Errorf("fault rate %g out of [0, 1)", maxRate)
	}
	world := geom.NewRect(0, 0, 1000, 1000)
	rng := rand.New(rand.NewSource(seed))
	rsRects := datagen.UniformRects(rng, 600, world, 2, 30)
	ssRects := datagen.UniformRects(rng, 600, world, 2, 30)

	fmt.Fprintf(out, "== Retry overhead vs transient fault rate (2×600 rects, tree join, cold cache, best of 3, seed %d) ==\n", seed)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "fault rate\twall ms\toverhead\tmatches\tmisses\tread retries\tfaulted reads\tfaulted writes\t\n")
	var base time.Duration
	for i, rate := range []float64{0, maxRate / 4, maxRate / 2, maxRate} {
		cfg := spatialjoin.DefaultConfig()
		cfg.Workers = 1
		cfg.QueryTimeout = timeout
		cfg.Metrics = reg
		if rate > 0 {
			cfg.Fault = &fault.Options{
				Seed:               seed,
				TransientReadRate:  rate,
				TransientWriteRate: rate / 2,
			}
			// The default backoff delays with a budget that outlasts the
			// swept rates, so the measured overhead includes the sleeps a
			// production-shaped policy would pay.
			retry := storage.DefaultRetryPolicy()
			retry.MaxAttempts = 12
			retry.Seed = seed
			cfg.Retry = &retry
		}
		db, err := spatialjoin.Open(cfg)
		if err != nil {
			return err
		}
		r, err := cli.Load(db, "r", rsRects)
		if err != nil {
			return err
		}
		s, err := cli.Load(db, "s", ssRects)
		if err != nil {
			return err
		}
		var elapsed time.Duration
		var matches []spatialjoin.Match
		for rep := 0; rep < 3; rep++ {
			if err := db.DropCache(); err != nil {
				return err
			}
			db.ResetIOStats()
			start := time.Now()
			ms, _, err := db.Join(r, s, spatialjoin.Overlaps(), spatialjoin.TreeStrategy)
			d := time.Since(start)
			if err != nil {
				return fmt.Errorf("join at fault rate %g: %w", rate, err)
			}
			matches = ms
			if elapsed == 0 || d < elapsed {
				elapsed = d
			}
		}
		if i == 0 {
			base = elapsed
		}
		ps, ds := db.IOStats(), db.DiskStats()
		fmt.Fprintf(w, "%.3f\t%.2f\t%.2fx\t%d\t%d\t%d\t%d\t%d\t\n",
			rate, float64(elapsed.Microseconds())/1000, float64(elapsed)/float64(base),
			len(matches), ps.Misses, ps.ReadRetries, ds.ReadFaults, ds.WriteFaults)
	}
	return w.Flush()
}

// printScaling measures the tile-partitioned parallel z-order join on one
// fixed workload across worker counts (powers of two up to maxWorkers) and
// prints wall time, speedup over the sequential run, and the pair count —
// which must be identical on every row, the engine's equivalence
// guarantee. Unlike the figures, these numbers are measured on this
// machine, not derived from the cost model; speedup requires the hardware
// to actually have the cores (GOMAXPROCS caps useful workers).
func printScaling(out io.Writer, maxWorkers int) error {
	if maxWorkers < 1 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	world := geom.NewRect(0, 0, 4096, 4096)
	g, err := zorder.NewGrid(world, 9)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(17))
	rs := datagen.UniformRects(rng, 4000, world, 2, 30)
	ss := datagen.UniformRects(rng, 4000, world, 2, 30)

	var counts []int
	for w := 1; w <= maxWorkers; w *= 2 {
		counts = append(counts, w)
	}
	if last := counts[len(counts)-1]; last != maxWorkers {
		counts = append(counts, maxWorkers)
	}

	fmt.Fprintf(out, "== Parallel z-order join scaling (2×4000 rects, level 9, GOMAXPROCS=%d) ==\n",
		runtime.GOMAXPROCS(0))
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "workers\twall ms\tspeedup\tpairs\n")
	var base time.Duration
	for _, n := range counts {
		best := time.Duration(0)
		var pairs int
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			ps, _ := g.ParallelOverlapJoin(rs, ss, n)
			elapsed := time.Since(start)
			pairs = len(ps)
			if best == 0 || elapsed < best {
				best = elapsed
			}
		}
		if n == 1 {
			base = best
		}
		fmt.Fprintf(w, "%d\t%.2f\t%.2fx\t%d\n",
			n, float64(best.Microseconds())/1000, float64(base)/float64(best), pairs)
	}
	return w.Flush()
}

// traceWorkload mirrors sjoin's workload builder: a model tree's tuples
// bulk-loaded with shuffled placement — the Figure-8 measured-select
// configuration (k = 5, height 4, uniform rectangles).
func traceWorkload(pool *storage.BufferPool) (join.Table, core.Tree, error) {
	rng := rand.New(rand.NewSource(1))
	world := geom.NewRect(0, 0, 1000, 1000)
	tree, n := datagen.ModelTree(rng, world, 5, 4)
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
		return join.Table{}, nil, err
	}
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{int64(i), rects[i]}
	}
	rel, err := relation.BulkLoad(pool, "trace", sch, tuples, relation.PlaceShuffled, 0.75, 1)
	if err != nil {
		return join.Table{}, nil, err
	}
	tab, err := join.NewTable(rel, 1, pool)
	if err != nil {
		return join.Table{}, nil, err
	}
	return tab, tree, nil
}

// printTraceOverhead prices the tracing hooks on the measured Figure-8
// select workload, the table-shaped twin of BenchmarkFig8TraceOverhead:
// "off" replicates the executor's pre-hook call path as the baseline,
// "nil-trace" is the shipped off-by-default state every un-traced query
// pays (a context lookup plus nil checks), and "full-trace" arms a fresh
// trace per query. The nil-trace row must stay within the 2% budget.
func printTraceOverhead(out io.Writer) error {
	pool, err := storage.NewBufferPool(storage.NewDisk(2000), 16)
	if err != nil {
		return err
	}
	tab, tree, err := traceWorkload(pool)
	if err != nil {
		return err
	}
	q := geom.NewRect(100, 100, 420, 420)
	op := pred.Overlaps{}
	const reps = 300

	rows := []struct {
		name  string
		note  string
		query func() error
	}{
		{"off", "pre-hook call path, no trace plumbing", func() error {
			opts := &core.SelectOptions{Traversal: core.BreadthFirst, Read: tab.Reader(nil)}
			_, err := core.Select(tree, q, op, opts)
			return err
		}},
		{"nil-trace", "shipped default: context lookup + nil checks", func() error {
			_, _, err := join.TreeSelect(context.Background(), tree, tab, q, op, core.BreadthFirst)
			return err
		}},
		{"full-trace", "obs.WithTrace armed per query", func() error {
			ctx, _ := obs.WithTrace(context.Background())
			_, _, err := join.TreeSelect(ctx, tree, tab, q, op, core.BreadthFirst)
			return err
		}},
	}
	measure := func(query func() error) (time.Duration, error) {
		// One warm-up query absorbs lazy initialization before the clock
		// starts; every timed query runs cold via DropAll.
		if err := pool.DropAll(); err != nil {
			return 0, err
		}
		if err := query(); err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := pool.DropAll(); err != nil {
				return 0, err
			}
			if err := query(); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	fmt.Fprintf(out, "== Tracing overhead, measured Figure-8 select workload (cold cache, %d queries per row) ==\n", reps)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "mode\twall ms\tus/query\tvs off\tnote\n")
	var base time.Duration
	for i, row := range rows {
		d, err := measure(row.query)
		if err != nil {
			return fmt.Errorf("%s row: %w", row.name, err)
		}
		if i == 0 {
			base = d
		}
		fmt.Fprintf(w, "%s\t%.2f\t%.1f\t%+.2f%%\t%s\n",
			row.name, float64(d.Microseconds())/1000,
			float64(d.Microseconds())/float64(reps),
			100*(float64(d)/float64(base)-1), row.note)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "budget: nil-trace must stay within 2% of off (asserted by BenchmarkFig8TraceOverhead);")
	fmt.Fprintln(out, "single-run wall clocks are noisy — prefer the benchmark for a pass/fail verdict.")
	return nil
}
