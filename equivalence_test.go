package spatialjoin

// Cross-strategy equivalence harness: every execution strategy — the
// nested-loop scan (I), the generalization-tree join (II), the
// precomputed join index (III), and the z-order sort-merge join — must
// return the identical canonically sorted match set for the overlaps
// operator, at every worker count.

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
)

// loadRects inserts rects into a fresh collection of db, asserting dense
// IDs so collection IDs and slice indices coincide.
func loadRects(t *testing.T, db *Database, name string, rects []Rect) *Collection {
	t.Helper()
	col, err := db.CreateCollection(name)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rects {
		id, err := col.Insert(r, "")
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("rect %d got id %d", i, id)
		}
	}
	return col
}

func TestCrossStrategyEquivalence(t *testing.T) {
	world := geom.NewRect(0, 0, 1000, 1000)
	rng := rand.New(rand.NewSource(404))
	rs := datagen.UniformRects(rng, 320, world, 2, 40)
	ss := datagen.ClusteredRects(rng, 320, 8, world, 120, 25)

	for _, workers := range []int{1, 8} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := loadRects(t, db, "r", rs)
		s := loadRects(t, db, "s", ss)
		if _, _, err := db.BuildJoinIndex(r, s, Overlaps()); err != nil {
			t.Fatal(err)
		}

		results := map[string][]Match{}
		for _, strat := range []Strategy{ScanStrategy, TreeStrategy, IndexStrategy} {
			ms, _, err := db.Join(r, s, Overlaps(), strat)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, strat, err)
			}
			results[strat.String()] = ms
		}
		zms, err := ZOverlapJoinCtx(context.Background(), rs, ss, world, 8, workers)
		if err != nil {
			t.Fatal(err)
		}
		results["zorder"] = zms

		want := results["scan"]
		if len(want) == 0 {
			t.Fatal("workload produced no matches")
		}
		for name, got := range results {
			if matchKey(got) != matchKey(want) {
				t.Errorf("workers=%d: %s returned %d matches, scan %d",
					workers, name, len(got), len(want))
			}
			// Every strategy's output is canonically (R, S)-sorted, so the
			// raw slices — not just the sorted sets — must be identical.
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("workers=%d: %s not canonically ordered at %d: %v vs %v",
						workers, name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestConcurrentDatabaseStress hammers one shared Database from many
// goroutines issuing mixed Join and Select calls (run under -race). Every
// goroutine must see the same answers, and the buffer pool's atomically
// maintained counters must stay consistent: misses never exceed logical
// reads, and the concurrent phase must actually have done work.
func TestConcurrentDatabaseStress(t *testing.T) {
	world := geom.NewRect(0, 0, 600, 600)
	rng := rand.New(rand.NewSource(77))

	cfg := DefaultConfig()
	cfg.BufferPages = 32 // small pool: force concurrent eviction traffic
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := loadRects(t, db, "r", datagen.UniformRects(rng, 200, world, 2, 30))
	s := loadRects(t, db, "s", datagen.UniformRects(rng, 200, world, 2, 30))

	wantJoin, _, err := db.Join(r, s, Overlaps(), TreeStrategy)
	if err != nil {
		t.Fatal(err)
	}
	probe := NewRect(100, 100, 400, 400)
	wantSel, _, err := db.Select(s, probe, Overlaps(), TreeStrategy)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantJoin) == 0 || len(wantSel) == 0 {
		t.Fatal("stress workload produced empty answers")
	}

	db.ResetIOStats()
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				switch (g + iter) % 3 {
				case 0:
					ms, _, err := db.Join(r, s, Overlaps(), TreeStrategy)
					if err != nil {
						errs[g] = err
						return
					}
					if matchKey(ms) != matchKey(wantJoin) {
						t.Errorf("goroutine %d: join diverged (%d vs %d matches)",
							g, len(ms), len(wantJoin))
						return
					}
				case 1:
					ms, _, err := db.Join(r, s, Overlaps(), ScanStrategy)
					if err != nil {
						errs[g] = err
						return
					}
					if matchKey(ms) != matchKey(wantJoin) {
						t.Errorf("goroutine %d: scan join diverged", g)
						return
					}
				default:
					ids, _, err := db.Select(s, probe, Overlaps(), TreeStrategy)
					if err != nil {
						errs[g] = err
						return
					}
					if len(ids) != len(wantSel) {
						t.Errorf("goroutine %d: select returned %d ids, want %d",
							g, len(ids), len(wantSel))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}

	stats := db.IOStats()
	if stats.LogicalReads == 0 {
		t.Fatal("concurrent phase recorded no logical reads")
	}
	if stats.Misses > stats.LogicalReads {
		t.Fatalf("inconsistent pool counters: %d misses > %d logical reads",
			stats.Misses, stats.LogicalReads)
	}
	if stats.Evictions > stats.Misses {
		t.Fatalf("inconsistent pool counters: %d evictions > %d misses",
			stats.Evictions, stats.Misses)
	}
}
