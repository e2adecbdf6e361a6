package spatialjoin

import (
	"fmt"
	"runtime"
	"testing"

	"spatialjoin/internal/storage"
)

// checkpointedRects returns the device of a logged database holding n
// checkpointed workload rectangles in one collection, and that
// collection's heap pages.
func checkpointedRects(t *testing.T, n int) (storage.Device, int) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.WAL = true
	cfg.WALGroupCommit = 64
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.CreateCollection("rects")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Insert(crashRect(i), fmt.Sprintf("r%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return db.Device(), c.Pages()
}

// TestReopenReadsEachHeapPageOnce reopens 2,000 checkpointed rectangles
// through a pool smaller than the heap and through one that holds it all:
// either way the device reads each heap page once, in the pass that
// rebuilds the collection, beside the log pages recovery reads.
func TestReopenReadsEachHeapPageOnce(t *testing.T) {
	dev, heapPages := checkpointedRects(t, 2000)
	for _, frames := range []int{16, 4096} {
		cfg := DefaultConfig()
		cfg.WAL = true
		cfg.WALGroupCommit = 64
		cfg.BufferPages = frames
		before := dev.Stats().Reads
		db, stats, err := Reopen(cfg, dev)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := dev.Stats().Reads-before, int64(heapPages)+stats.LogPagesRead; got != want {
			t.Errorf("%d frames: Reopen read %d pages, want %d heap + %d log", frames, got, heapPages, stats.LogPagesRead)
		}
		if c, ok := db.Collection("rects"); !ok || c.Len() != 2000 {
			t.Fatalf("%d frames: the collection did not reopen whole", frames)
		}
	}
}

// TestReopenAllocatesLittlePerTuple reopens 20,000 checkpointed rectangles:
// the pass that rebuilds the collection reads each tuple's bounds in place,
// building no tuple, so the whole Reopen stays under a quarter of an
// allocation per tuple (the R-tree's nodes, the heap's frames and the ID
// table amortize to less).
func TestReopenAllocatesLittlePerTuple(t *testing.T) {
	if raceDetector() {
		t.Skip("the race detector allocates on its own account")
	}
	const n = 20000
	dev, _ := checkpointedRects(t, n)
	cfg := DefaultConfig()
	cfg.WAL = true
	cfg.WALGroupCommit = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := Reopen(cfg, dev); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / n; per > 0.25 {
		t.Errorf("Reopen made %.3f allocations per tuple (%d in all), want at most 0.25", per, after.Mallocs-before.Mallocs)
	}
}
