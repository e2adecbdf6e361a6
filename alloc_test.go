package spatialjoin

import (
	"runtime/debug"
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
// Workers = 4, whose per-chunk worklists come from the same pool — except
// under the race detector, where sync.Pool deliberately drops a quarter of
// what is put back and sixteen scratches a level make that certain to show.
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
				_, err := ZOverlapJoinWorkers(rs, ss, world, zLevel, workers)
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
			if ceiling := float64(evals / c.per); allocs > ceiling && !(workers > 1 && raceDetector()) {
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
