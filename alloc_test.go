package spatialjoin

import "testing"

// TestResidentTreeJoinAllocatesPerLevelNotPerNode guards the descent's
// allocation discipline: with every page resident, a tree join examines
// tens of thousands of nodes and may allocate only where the result grows
// or a level's worklist outgrows the pooled scratch — at most 64
// allocations per join, whatever its Θ count. (Before the index-based Node
// interface it allocated once per node examined; before the pooled scratch
// it regrew the worklist at every level.)
func TestResidentTreeJoinAllocatesPerLevelNotPerNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
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
		t.Fatalf("join read %d pages; the guard needs a resident pool", stats.PageReads)
	}
	if allocs > 64 {
		t.Errorf("resident tree join: %.0f allocations for %d filter evaluations, want <= 64",
			allocs, stats.FilterEvals)
	}
	t.Logf("%.0f allocations, %d filter evaluations, %d exact", allocs, stats.FilterEvals, stats.ExactEvals)
}
