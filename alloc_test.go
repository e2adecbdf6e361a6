package spatialjoin

import (
	"runtime/debug"
	"testing"
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

// TestResidentTreeJoinAllocatesPerLevelNotPerNode guards the descent's
// allocation discipline: with every page resident, a tree join examines
// tens of thousands of nodes and may allocate only where the result grows
// or a level's worklist outgrows the pooled scratch — at most 64
// allocations per join, whatever its Θ count. (Before the index-based Node
// interface it allocated once per node examined; before the pooled scratch
// it regrew the worklist at every level.) The ceiling is the same with
// Workers = 4, whose per-chunk worklists come from the same pool — except
// under the race detector, where sync.Pool deliberately drops a quarter of
// what is put back and sixteen scratches a level make that certain to show.
func TestResidentTreeJoinAllocatesPerLevelNotPerNode(t *testing.T) {
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
		loadRandomRects(t, r, 1, 2000)
		loadRandomRects(t, s, 2, 2000)

		var stats Stats
		join := func() {
			var err error
			if _, stats, err = db.Join(r, s, Overlaps(), TreeStrategy); err != nil {
				t.Fatal(err)
			}
		}
		join() // warm: every page resident from here on
		allocs := testing.AllocsPerRun(5, join)
		if stats.PageReads != 0 {
			t.Fatalf("workers=%d: join read %d pages; the guard needs a resident pool", workers, stats.PageReads)
		}
		if allocs > 64 && !(workers > 1 && raceDetector()) {
			t.Errorf("workers=%d: resident tree join: %.0f allocations for %d filter evaluations, want <= 64",
				workers, allocs, stats.FilterEvals)
		}
		t.Logf("workers=%d: %.0f allocations, %d filter evaluations, %d exact",
			workers, allocs, stats.FilterEvals, stats.ExactEvals)
	}
}
