package spatialjoin

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"spatialjoin/internal/obs"
	"spatialjoin/internal/zorder"
)

// raceDetector reports whether the test binary was built with -race, read
// from its build settings (a build-tagged constant would be the usual way,
// but sjlint's loader type-checks every file of a package together).
func raceDetector() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// lastEventSeq returns the sequence number of the flight recorder's newest
// event.
func lastEventSeq() uint64 {
	evs := obs.Events()
	if len(evs) == 0 {
		return 0
	}
	return evs[len(evs)-1].Seq
}

// TestResidentTreeJoinAllocatesPerLevelNotPerNode guards the per-pair path
// of every join executor. With every page resident, the tree join and tree
// selection examine thousands of nodes, the nested-loop scan evaluates θ
// four million times and the z-order merge forms half a million candidate
// pairs; each may allocate where its result or a level's worklist grows, or
// once per tuple decoded, but not per node examined or per candidate pair.
// So each gets a ceiling of one allocation per `per` evaluations (Θ for the
// tree algorithms, θ for the scan, merge candidates for z-order), with
// headroom over what each allocated when the ceilings were set: a slice
// made per node of a descent, or geometry allocated per pair, fails it.
// Nor may a join emit flight-recorder events beyond a query's start and
// finish: Record does not allocate, so only the recorder's sequence number
// can show a per-pair emission flooding the ring. The ceilings hold with
// Workers = 4 too, under the race detector as well: the tree join and
// selection run on one goroutine with one pooled scratch whatever the
// worker count, and the scan and z-order workers allocate per chunk or
// strip, not per pair.
func TestResidentTreeJoinAllocatesPerLevelNotPerNode(t *testing.T) {
	const zLevel = 10
	world := NewRect(0, 0, 1000, 1000)
	window := NewRect(100, 100, 400, 400)
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.BufferPages = 4096
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := db.CreateCollection("r")
		s, _ := db.CreateCollection("s")
		rs := loadRandomRects(t, r, 1, 2000)
		ss := loadRandomRects(t, s, 2, 2000)
		g, err := zorder.NewGrid(world, zLevel)
		if err != nil {
			t.Fatal(err)
		}
		_, zstats := g.OverlapJoin(rs, ss, zorder.JoinOptions{Dedup: true, Exact: true})

		for _, c := range []struct {
			name   string
			per    int64  // evaluations per allocation allowed
			events uint64 // flight-recorder events per call: a query's start and finish
			run    func() (evals int64, st Stats, err error)
		}{
			{"tree", 1024, 2, func() (int64, Stats, error) {
				_, st, err := db.Join(r, s, Overlaps(), TreeStrategy)
				return st.FilterEvals, st, err
			}},
			{"select", 8, 2, func() (int64, Stats, error) {
				_, st, err := db.Select(r, window, Overlaps(), TreeStrategy)
				return st.FilterEvals, st, err
			}},
			{"scan", 100, 2, func() (int64, Stats, error) {
				_, st, err := db.Join(r, s, Overlaps(), ScanStrategy)
				return st.ExactEvals, st, err
			}},
			{"zorder", 8, 0, func() (int64, Stats, error) {
				_, err := ZOverlapJoinCtx(context.Background(), rs, ss, world, zLevel, workers)
				return int64(zstats.Candidates), Stats{}, err
			}},
		} {
			var evals int64
			var st Stats
			run := func() {
				if evals, st, err = c.run(); err != nil {
					t.Fatalf("workers=%d %s: %v", workers, c.name, err)
				}
			}
			run() // warm: every page resident from here on
			const runs = 3
			before := lastEventSeq()
			allocs := testing.AllocsPerRun(runs, run)
			if st.PageReads != 0 {
				t.Fatalf("workers=%d %s: read %d pages; the guard needs a resident pool", workers, c.name, st.PageReads)
			}
			if got, want := lastEventSeq()-before, (runs+1)*c.events; got != want {
				t.Errorf("workers=%d %s: %d flight-recorder events over %d calls, want %d",
					workers, c.name, got, runs+1, want)
			}
			if ceiling := float64(evals / c.per); allocs > ceiling {
				t.Errorf("workers=%d %s: %.0f allocations for %d evaluations, want <= %.0f",
					workers, c.name, allocs, evals, ceiling)
			}
			t.Logf("workers=%d %s: %.0f allocations, %d evaluations", workers, c.name, allocs, evals)
		}
	}
}

// TestJoinIndexMaintenanceReadsOnlyTheOperand inserts into a collection
// with a registered join index over 500 others. Maintenance evaluates θ
// against every other tuple (the paper's U_III), and reads each one's shape
// into one scratch rectangle: an insert allocates a small constant, not
// once per probed tuple, as decoding each record, payload included, did.
func TestJoinIndexMaintenanceReadsOnlyTheOperand(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r, err := db.CreateCollection("r")
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.CreateCollection("s")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		x := float64(i % 25 * 40)
		y := float64(i / 25 * 40)
		if _, err := s.Insert(NewRect(x, y, x+30, y+30), "payload"); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := db.BuildJoinIndex(r, s, Overlaps()); err != nil {
		t.Fatal(err)
	}
	const ceiling = 20
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := r.Insert(NewRect(100, 100, 150, 150), "new"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Errorf("an insert under a join index over 500 tuples allocates %.1f times, want at most %d", allocs, ceiling)
	}
}

// TestJoinIndexMaintenanceBoxesOnlyTheOperand inserts the same rectangles
// into two databases that differ only in a join index over (r, s). The
// inserts overlap nothing in s, so maintenance writes no pair: its probe
// reads each s tuple into the index's own scratch rectangle, and θ gets the
// engine's copy of the new shape (boxed only for a polygon or segment). So
// the join index may cost at most one allocation per insert over the same
// insert without one, plus 0.05; a scratch declared per insert that escapes
// costs one more.
func TestJoinIndexMaintenanceBoxesOnlyTheOperand(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 500
	perInsert := func(indexed bool) float64 {
		cfg := DefaultConfig()
		cfg.Workers = 1
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		r, _ := db.CreateCollection("r")
		s, _ := db.CreateCollection("s")
		for i := 0; i < 100; i++ {
			x := float64(i % 10 * 40)
			if _, err := s.Insert(NewRect(x, x, x+30, x+30), ""); err != nil {
				t.Fatal(err)
			}
		}
		if indexed {
			if _, _, err := db.BuildJoinIndex(r, s, Overlaps()); err != nil {
				t.Fatal(err)
			}
		}
		next := 0
		// One warm-up run of n inserts, then n counted.
		return testing.AllocsPerRun(1, func() {
			for end := next + n; next < end; next++ {
				x := 2000 + float64(next%50*20)
				if _, err := r.Insert(NewRect(x, x, x+10, x+10), ""); err != nil {
					t.Fatal(err)
				}
			}
		}) / n
	}
	plain, indexed := perInsert(false), perInsert(true)
	t.Logf("%.3f allocations per insert without a join index, %.3f with one", plain, indexed)
	if indexed > plain+1.05 && !raceDetector() {
		t.Errorf("an insert under a join index allocates %.3f times, want <= %.3f (without one) + 1.05", indexed, plain)
	}
}

// TestOperationsAllocateOnlyTheirAnswer holds each engine operation to what
// it returns to its caller or adds to the index. An insert encodes its
// record into the collection's reused buffer before its transaction, so it
// allocates what the R-tree gains (a split's sibling, a node's entries
// growing) and what the device gains (an extent per eight heap pages, and
// under the WAL an extent per eight log pages, one written per sync): 0.03
// allocations per insert, or 0.19 logged, over 2,000 inserts. The ceilings
// sit just above, so a device or pool that allocates per page fails them.
// A tree selection takes its worklists from a pool and copies its matches
// out once, at their size; a tree join takes its worklists, options and
// result from a pool, its readers and read account from another, and grows
// its pairs once per refinement: each allocates its answer and nothing
// else, whether every page is resident or the pool holds 16 frames. The
// shapes are boxed into Spatial before the counts start, so that
// allocation, the caller's, is not counted. A query is counted after two
// warm-up calls, because the two level buffers swap roles from one call to
// the next when a descent has an odd number of levels. The collector is off
// while the counts run, so no collection empties a pool mid-measurement,
// and GOMAXPROCS is 1 throughout, as AllocsPerRun sets it, because a pool
// drops its per-P items when GOMAXPROCS changes. Under the race detector,
// sync.Pool drops a quarter of what is put back, so the ceilings are not
// checked there.
func TestOperationsAllocateOnlyTheirAnswer(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	check := func(what string, allocs, ceiling float64) {
		t.Helper()
		t.Logf("%s: %.3f allocations", what, allocs)
		if allocs > ceiling && !raceDetector() {
			t.Errorf("%s: %.3f allocations, want <= %g", what, allocs, ceiling)
		}
	}

	const n = 2000
	rng := rand.New(rand.NewSource(7))
	shapes := make([]Spatial, 2*n)
	payloads := make([]string, 2*n)
	for i := range shapes {
		x, y := rng.Float64()*900, rng.Float64()*900
		shapes[i] = NewRect(x, y, x+rng.Float64()*60, y+rng.Float64()*60)
		payloads[i] = fmt.Sprintf("obj-%d", i)
	}
	for _, c := range []struct {
		logged  bool
		ceiling float64 // per insert
	}{{false, 0.05}, {true, 0.25}} {
		cfg := DefaultConfig()
		cfg.Workers = 1
		cfg.WAL = c.logged
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		col, err := db.CreateCollection("c")
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		// One warm-up run of n inserts, then n counted.
		perRun := testing.AllocsPerRun(1, func() {
			for end := next + n; next < end; next++ {
				if _, err := col.Insert(shapes[next], payloads[next]); err != nil {
					t.Fatal(err)
				}
			}
		})
		check(fmt.Sprintf("insert (WAL %v)", c.logged), perRun/n, c.ceiling)
	}

	// steady is AllocsPerRun (which makes one warm-up call) after one more.
	steady := func(runs int, f func()) float64 {
		f()
		return testing.AllocsPerRun(runs, f)
	}
	var window Spatial = NewRect(100, 100, 160, 160)
	for _, frames := range []int{4096, 16} {
		cfg := DefaultConfig()
		cfg.Workers = 1
		cfg.BufferPages = frames
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := db.CreateCollection("r")
		s, _ := db.CreateCollection("s")
		loadRandomRects(t, r, 1, n)
		loadRandomRects(t, s, 2, n)
		var answer int
		check(fmt.Sprintf("select, %d frames", frames), steady(20, func() {
			ids, _, err := db.Select(r, window, Overlaps(), TreeStrategy)
			if err != nil {
				t.Fatal(err)
			}
			answer = len(ids)
		}), 2)
		if answer == 0 {
			t.Fatalf("the select window matched nothing: no answer to allocate")
		}
		check(fmt.Sprintf("tree join, %d frames", frames), steady(5, func() {
			ms, _, err := db.Join(r, s, Overlaps(), TreeStrategy)
			if err != nil {
				t.Fatal(err)
			}
			answer = len(ms)
		}), 2)
		if answer == 0 {
			t.Fatalf("the join matched nothing: no answer to allocate")
		}
	}
}

// TestInsertKeepsTheCallersShape passes each insert's shape unboxed at the
// call site, a Rect or a Polygon value, logged and unlogged. Insert reads
// the bounds through a type switch, and only a join index's θ gets a boxed
// copy, so the conversion to Spatial stays on the caller's stack: an
// unboxed insert allocates at most what the same insert of a shape boxed
// beforehand does (TestOperationsAllocateOnlyTheirAnswer's count), plus
// 0.01. An interface method call on the shape along Insert's path leaks it,
// and moves every caller's box to the heap: one more allocation per insert.
func TestInsertKeepsTheCallersShape(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 2000
	rng := rand.New(rand.NewSource(7))
	rects := make([]Rect, 2*n)
	polys := make([]Polygon, 2*n)
	boxedRects := make([]Spatial, 2*n)
	boxedPolys := make([]Spatial, 2*n)
	payloads := make([]string, 2*n)
	for i := range rects {
		x, y := rng.Float64()*900, rng.Float64()*900
		rects[i] = NewRect(x, y, x+rng.Float64()*60, y+rng.Float64()*60)
		polys[i] = RegularPolygon(Pt(x, y), 1+rng.Float64()*30, 6)
		boxedRects[i], boxedPolys[i] = rects[i], polys[i]
		payloads[i] = fmt.Sprintf("obj-%d", i)
	}
	// perInsert opens a database and returns the allocations per insert of
	// n counted inserts, after n warm-up ones, of insert(col, i).
	perInsert := func(logged bool, insert func(col *Collection, i int) error) float64 {
		cfg := DefaultConfig()
		cfg.Workers = 1
		cfg.WAL = logged
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		col, err := db.CreateCollection("c")
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		return testing.AllocsPerRun(1, func() {
			for end := next + n; next < end; next++ {
				if err := insert(col, next); err != nil {
					t.Fatal(err)
				}
			}
		}) / n
	}
	for _, logged := range []bool{false, true} {
		for _, c := range []struct {
			shape          string
			boxed, unboxed func(col *Collection, i int) error
		}{
			{"Rect", func(col *Collection, i int) error {
				_, err := col.Insert(boxedRects[i], payloads[i])
				return err
			}, func(col *Collection, i int) error {
				_, err := col.Insert(rects[i], payloads[i])
				return err
			}},
			{"Polygon", func(col *Collection, i int) error {
				_, err := col.Insert(boxedPolys[i], payloads[i])
				return err
			}, func(col *Collection, i int) error {
				_, err := col.Insert(polys[i], payloads[i])
				return err
			}},
		} {
			boxed, unboxed := perInsert(logged, c.boxed), perInsert(logged, c.unboxed)
			t.Logf("%s insert (WAL %v): %.3f allocations boxed beforehand, %.3f unboxed", c.shape, logged, boxed, unboxed)
			if unboxed > boxed+0.01 && !raceDetector() {
				t.Errorf("%s insert (WAL %v): %.3f allocations with the shape unboxed, want <= %.3f (boxed beforehand) + 0.01",
					c.shape, logged, unboxed, boxed)
			}
		}
	}
}

// TestSelectKeepsTheCallersWindow passes each select's window unboxed at
// the call site, a Rect or a Point value, through Select and SelectContext,
// at the tree and the scan strategy. SelectContext reads the selector
// through a type switch and evaluates a copy in a pooled cell, so the
// conversion to Spatial stays on the caller's stack: an unboxed select
// allocates at most what the same select of a window boxed beforehand
// does, plus 0.01. A Spatial method called on the selector, or the
// selector handed to θ, leaks it, and moves every caller's box to the heap:
// one more allocation per select. A *Rect or *Point selector returns
// exactly what its value returns.
func TestSelectKeepsTheCallersWindow(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 200
	cfg := DefaultConfig()
	cfg.Workers = 1
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col, err := db.CreateCollection("c")
	if err != nil {
		t.Fatal(err)
	}
	loadRandomRects(t, col, 1, 1000)
	rng := rand.New(rand.NewSource(7))
	rects := make([]Rect, n)
	points := make([]Point, n)
	boxedRects := make([]Spatial, n)
	boxedPoints := make([]Spatial, n)
	for i := range rects {
		x, y := rng.Float64()*900, rng.Float64()*900
		rects[i] = NewRect(x, y, x+rng.Float64()*80, y+rng.Float64()*80)
		points[i] = Pt(x, y)
		boxedRects[i], boxedPoints[i] = rects[i], points[i]
	}
	ctx := context.Background()
	// perSelect returns the allocations per select of n counted selects,
	// after n warm-up ones, of sel(i).
	perSelect := func(sel func(i int) error) float64 {
		return testing.AllocsPerRun(1, func() {
			for i := 0; i < n; i++ {
				if err := sel(i); err != nil {
					t.Fatal(err)
				}
			}
		}) / n
	}
	for _, strategy := range []Strategy{TreeStrategy, ScanStrategy} {
		for _, c := range []struct {
			call           string
			boxed, unboxed func(i int) error
		}{
			{"Rect, Select", func(i int) error {
				_, _, err := db.Select(col, boxedRects[i], Overlaps(), strategy)
				return err
			}, func(i int) error {
				_, _, err := db.Select(col, rects[i], Overlaps(), strategy)
				return err
			}},
			{"Rect, SelectContext", func(i int) error {
				_, _, err := db.SelectContext(ctx, col, boxedRects[i], Overlaps(), strategy)
				return err
			}, func(i int) error {
				_, _, err := db.SelectContext(ctx, col, rects[i], Overlaps(), strategy)
				return err
			}},
			{"Point, Select", func(i int) error {
				_, _, err := db.Select(col, boxedPoints[i], Overlaps(), strategy)
				return err
			}, func(i int) error {
				_, _, err := db.Select(col, points[i], Overlaps(), strategy)
				return err
			}},
			{"Point, SelectContext", func(i int) error {
				_, _, err := db.SelectContext(ctx, col, boxedPoints[i], Overlaps(), strategy)
				return err
			}, func(i int) error {
				_, _, err := db.SelectContext(ctx, col, points[i], Overlaps(), strategy)
				return err
			}},
		} {
			boxed, unboxed := perSelect(c.boxed), perSelect(c.unboxed)
			t.Logf("%s (%v): %.3f allocations boxed beforehand, %.3f unboxed", c.call, strategy, boxed, unboxed)
			if unboxed > boxed+0.01 && !raceDetector() {
				t.Errorf("%s (%v): %.3f allocations with the window unboxed, want <= %.3f (boxed beforehand) + 0.01",
					c.call, strategy, unboxed, boxed)
			}
		}
		for i := range rects {
			for _, sel := range [][2]Spatial{{rects[i], &rects[i]}, {points[i], &points[i]}} {
				want, _, err := db.Select(col, sel[0], Overlaps(), strategy)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := db.Select(col, sel[1], Overlaps(), strategy)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%v select of %T %v: IDs %v, its value's %v", strategy, sel[1], sel[0], got, want)
				}
			}
		}
	}
}
