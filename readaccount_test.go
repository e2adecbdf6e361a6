package spatialjoin

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"spatialjoin/internal/obs"
)

// accountQuery is one query of the concurrent read-account test: a name
// and a run that returns the query's stats.
type accountQuery struct {
	name string
	run  func(ctx context.Context) (Stats, error)
}

// accountDB opens a database of frames pool pages at the given worker
// count and loads four collections of 2,000 rectangles (seeds 1–4).
func accountDB(t *testing.T, frames, workers int) (*Database, []*Collection) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.BufferPages = frames
	cfg.Workers = workers
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	cols := make([]*Collection, 4)
	for i := range cols {
		if cols[i], err = db.CreateCollection(fmt.Sprintf("c%d", i+1)); err != nil {
			t.Fatal(err)
		}
		loadRandomRects(t, cols[i], int64(i+1), 2000)
	}
	return db, cols
}

func treeJoinQuery(db *Database, r, s *Collection) accountQuery {
	return accountQuery{"tree " + r.name + "⋈" + s.name, func(ctx context.Context) (Stats, error) {
		_, st, err := db.JoinContext(ctx, r, s, Overlaps(), TreeStrategy)
		return st, err
	}}
}

// runConcurrently drops the cache, starts every query at once, each under
// a trace of its own, and returns their stats, their traces and the pool's
// misses over the window.
func runConcurrently(t *testing.T, db *Database, qs []accountQuery) ([]Stats, []*obs.Trace, int64) {
	t.Helper()
	if err := db.DropCache(); err != nil {
		t.Fatal(err)
	}
	stats := make([]Stats, len(qs))
	traces := make([]*obs.Trace, len(qs))
	errs := make([]error, len(qs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	before := db.IOStats().Misses
	for i, q := range qs {
		ctx, tr := obs.WithTrace(context.Background())
		traces[i] = tr
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			stats[i], errs[i] = q.run(ctx)
		}()
	}
	close(start)
	wg.Wait()
	misses := db.IOStats().Misses - before
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", qs[i].name, err)
		}
	}
	return stats, traces, misses
}

// TestConcurrentQueriesChargeTheirOwnReads runs queries at the same time
// on one pool and checks that each is charged the misses its own reads
// caused, at workers 1 and 4:
//   - with every page resident after its first read (4,096 frames), two
//     tree joins over disjoint collection pairs each report exactly the
//     reads they report run alone and cold;
//   - with 16 frames, a tree join run alone and cold reads as many pages
//     at workers 4 as at workers 1: it runs on one goroutine either way;
//   - with 16 frames, where the queries evict each other's pages, two tree
//     joins, tree selects on every collection and a scan join report reads
//     that sum to the pool's misses over the window;
//   - in each traced query, the per-level (per-block for the scan) reads
//     sum to the query's own PageReads.
func TestConcurrentQueriesChargeTheirOwnReads(t *testing.T) {
	var coldAtOne int64 // the 16-frame solo tree join's reads at workers 1
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db, cols := accountDB(t, 4096, workers)
			joins := []accountQuery{treeJoinQuery(db, cols[0], cols[1]), treeJoinQuery(db, cols[2], cols[3])}
			solo := make([]int64, len(joins))
			for i, q := range joins {
				st, _, _ := runConcurrently(t, db, joins[i:i+1])
				if solo[i] = st[0].PageReads; solo[i] == 0 {
					t.Fatalf("%s read nothing cold", q.name)
				}
			}
			got, _, misses := runConcurrently(t, db, joins)
			var sum int64
			for i, q := range joins {
				sum += got[i].PageReads
				if got[i].PageReads != solo[i] {
					t.Errorf("4096 frames: %s charged %d reads beside the other join, %d alone",
						q.name, got[i].PageReads, solo[i])
				}
			}
			if sum != misses {
				t.Errorf("4096 frames: joins charged %d reads, pool missed %d", sum, misses)
			}

			db, cols = accountDB(t, 16, workers)
			st, _, _ := runConcurrently(t, db, []accountQuery{treeJoinQuery(db, cols[0], cols[1])})
			if workers == 1 {
				coldAtOne = st[0].PageReads
			} else if coldAtOne != 0 && st[0].PageReads != coldAtOne {
				t.Errorf("16 frames: the cold tree join read %d pages alone, %d at workers 1",
					st[0].PageReads, coldAtOne)
			}
			qs := []accountQuery{treeJoinQuery(db, cols[0], cols[1]), treeJoinQuery(db, cols[2], cols[3])}
			for i, c := range cols {
				for j := 0; j < 3; j++ {
					x, y := float64(100*i+250*j), float64(700-200*j)
					window := NewRect(x, y, x+200, y+200)
					qs = append(qs, accountQuery{fmt.Sprintf("select %s %v", c.name, window),
						func(ctx context.Context) (Stats, error) {
							_, st, err := db.SelectContext(ctx, c, window, Overlaps(), TreeStrategy)
							return st, err
						}})
				}
			}
			qs = append(qs, accountQuery{"scan c1⋈c3", func(ctx context.Context) (Stats, error) {
				_, st, err := db.JoinContext(ctx, cols[0], cols[2], Overlaps(), ScanStrategy)
				return st, err
			}})
			got, traces, misses := runConcurrently(t, db, qs)
			sum = 0
			for i, q := range qs {
				sum += got[i].PageReads
				var levels int64
				for _, name := range []string{"level", "block"} {
					for _, sp := range traces[i].SpansNamed(name) {
						r, _ := sp.IntAttr("reads")
						levels += r
					}
				}
				if got[i].PageReads == 0 || levels != got[i].PageReads {
					t.Errorf("16 frames: %s per-level reads sum to %d, PageReads %d",
						q.name, levels, got[i].PageReads)
				}
			}
			if sum != misses {
				t.Errorf("16 frames: queries charged %d reads in all, pool missed %d", sum, misses)
			}
		})
	}
}
