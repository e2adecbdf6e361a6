package spatialjoin

// Chaos harness: the robustness counterpart of the cross-strategy
// equivalence harness. Under deterministic seeded fault schedules —
// transient-only, mixed with in-flight corruption, and permanent index-page
// loss — every strategy at every worker count must return either the
// byte-identical canonically sorted match set or a typed error
// (*fault.Error, *storage.ChecksumError, or a context error). A silently
// wrong answer is the one outcome that must never happen.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/fault"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/storage"
)

// chaosRects returns the fixed workload both the faulty databases and the
// healthy baseline load.
func chaosRects() (rs, ss []Rect, world Rect) {
	world = geom.NewRect(0, 0, 800, 800)
	rng := rand.New(rand.NewSource(1203))
	rs = datagen.UniformRects(rng, 120, world, 2, 35)
	ss = datagen.ClusteredRects(rng, 120, 6, world, 100, 20)
	return rs, ss, world
}

// chaosBaseline computes the ground-truth match set on a healthy database.
func chaosBaseline(t *testing.T) []Match {
	t.Helper()
	rs, ss, _ := chaosRects()
	db, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := loadRects(t, db, "r", rs)
	s := loadRects(t, db, "s", ss)
	want, _, err := db.Join(r, s, Overlaps(), ScanStrategy)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("chaos workload produced no matches")
	}
	return want
}

// chaosOpen opens a database over the given fault schedule, with a retry
// budget generous enough that rate-driven schedules almost never exhaust
// it, and loads the chaos workload plus a join index.
func chaosOpen(t *testing.T, workers int, opts fault.Options) (*Database, *Collection, *Collection) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = workers
	cfg.BufferPages = 48 // small pool: faults exercise eviction write-backs too
	cfg.Fault = &opts
	cfg.Retry = &storage.RetryPolicy{MaxAttempts: 10, Seed: opts.Seed}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, ss, _ := chaosRects()
	r := loadRects(t, db, "r", rs)
	s := loadRects(t, db, "s", ss)
	if _, _, err := db.BuildJoinIndex(r, s, Overlaps()); err != nil {
		t.Fatalf("BuildJoinIndex under faults: %v", err)
	}
	return db, r, s
}

// typedFailure reports whether err is one of the sanctioned failure shapes:
// an injected fault, a checksum mismatch, or a context error. Anything else
// under chaos is a bug.
func typedFailure(err error) bool {
	var fe *fault.Error
	return errors.As(err, &fe) || storage.IsChecksum(err) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// TestChaosTransientRecovery runs a transient-only schedule mild enough
// that the retry budget always recovers: every strategy must return the
// exact baseline, retries must be visible in PoolStats, injected faults in
// DiskStats, and the logical/physical attempt accounting must balance.
func TestChaosTransientRecovery(t *testing.T) {
	want := chaosBaseline(t)
	for _, workers := range []int{1, 4} {
		// The load writes only nine pages; this seed faults some of them.
		db, r, s := chaosOpen(t, workers, fault.Options{
			Seed:               4029,
			TransientReadRate:  0.10,
			TransientWriteRate: 0.05,
		})
		for _, strat := range []Strategy{ScanStrategy, TreeStrategy, IndexStrategy} {
			if err := db.DropCache(); err != nil {
				t.Fatalf("workers=%d %s: DropCache: %v", workers, strat, err)
			}
			ms, stats, err := db.Join(r, s, Overlaps(), strat)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, strat, err)
			}
			if matchKey(ms) != matchKey(want) {
				t.Fatalf("workers=%d %s: diverged from baseline (%d vs %d matches)",
					workers, strat, len(ms), len(want))
			}
			if stats.Downgrades != 0 {
				t.Errorf("workers=%d %s: unexpected downgrade", workers, strat)
			}
		}
		ps, ds := db.IOStats(), db.DiskStats()
		if ps.ReadRetries == 0 {
			t.Errorf("workers=%d: no read retries recorded: %+v", workers, ps)
		}
		if ds.ReadFaults == 0 || ds.WriteFaults == 0 {
			t.Errorf("workers=%d: injected faults not visible in DiskStats: %+v", workers, ds)
		}
		// Transient faults never reach the device, so the pool's physical
		// read attempts must equal the device's transfers plus its faults.
		if ps.Misses+ps.ReadRetries != ds.Reads+ds.ReadFaults {
			t.Errorf("workers=%d: attempt accounting: pool issued %d+%d, device saw %d+%d",
				workers, ps.Misses, ps.ReadRetries, ds.Reads, ds.ReadFaults)
		}
	}
}

// TestChaosMixedFaults runs schedules mixing transient faults with
// in-flight corruption across worker counts and asserts the core
// invariant: byte-identical result or typed error, never a silently wrong
// answer.
func TestChaosMixedFaults(t *testing.T) {
	want := chaosBaseline(t)
	for _, seed := range []int64{1, 2, 3} {
		for _, workers := range []int{1, 4} {
			db, r, s := chaosOpen(t, workers, fault.Options{
				Seed:               seed,
				TransientReadRate:  0.20,
				TransientWriteRate: 0.05,
				CorruptRate:        0.10,
			})
			for _, strat := range []Strategy{ScanStrategy, TreeStrategy, IndexStrategy} {
				if err := db.DropCache(); err != nil {
					if !typedFailure(err) {
						t.Fatalf("seed=%d workers=%d %s: untyped DropCache error: %v", seed, workers, strat, err)
					}
					continue
				}
				ms, _, err := db.Join(r, s, Overlaps(), strat)
				if err != nil {
					if !typedFailure(err) {
						t.Fatalf("seed=%d workers=%d %s: untyped error: %v", seed, workers, strat, err)
					}
					continue
				}
				if matchKey(ms) != matchKey(want) {
					t.Fatalf("seed=%d workers=%d %s: SILENTLY WRONG ANSWER (%d vs %d matches)",
						seed, workers, strat, len(ms), len(want))
				}
			}
		}
	}
}

// TestChaosIndexLossFallsBack marks a join-index pair-file page permanently
// lost and asserts graceful degradation: the index join falls back to the
// nested loop over the intact heap files, records the downgrade, and still
// returns the exact baseline.
func TestChaosIndexLossFallsBack(t *testing.T) {
	want := chaosBaseline(t)
	for _, workers := range []int{1, 4} {
		db, r, s := chaosOpen(t, workers, fault.Options{Seed: 5005})
		ji, ok := db.joinIndexFor(r, s, Overlaps())
		if !ok {
			t.Fatal("join index missing")
		}
		if err := db.DropCache(); err != nil {
			t.Fatal(err)
		}
		db.FaultDisk().LosePage(storage.PageID{File: ji.FileID(), Page: 0})

		ms, stats, err := db.Join(r, s, Overlaps(), IndexStrategy)
		if err != nil {
			t.Fatalf("workers=%d: degradation failed: %v", workers, err)
		}
		if stats.Downgrades != 1 {
			t.Errorf("workers=%d: Downgrades = %d, want 1", workers, stats.Downgrades)
		}
		if matchKey(ms) != matchKey(want) {
			t.Fatalf("workers=%d: degraded result diverged (%d vs %d matches)",
				workers, len(ms), len(want))
		}
		// The scan strategy never touched the lost index pages.
		ms, stats, err = db.Join(r, s, Overlaps(), ScanStrategy)
		if err != nil || stats.Downgrades != 0 {
			t.Fatalf("workers=%d scan after index loss: err=%v downgrades=%d", workers, err, stats.Downgrades)
		}
		if matchKey(ms) != matchKey(want) {
			t.Fatalf("workers=%d: scan diverged after index loss", workers)
		}
	}
}

// TestChaosTornIndexPageDegrades corrupts a join-index pair-file page at rest
// (same bit flipped on every read, so retries cannot clear it) and asserts
// the checksum layer converts it into a degradation, not a wrong answer.
func TestChaosTornIndexPageDegrades(t *testing.T) {
	want := chaosBaseline(t)
	db, r, s := chaosOpen(t, 1, fault.Options{Seed: 6006})
	ji, ok := db.joinIndexFor(r, s, Overlaps())
	if !ok {
		t.Fatal("join index missing")
	}
	if err := db.DropCache(); err != nil {
		t.Fatal(err)
	}
	db.FaultDisk().TearPage(storage.PageID{File: ji.FileID(), Page: 0})
	ms, stats, err := db.Join(r, s, Overlaps(), IndexStrategy)
	if err != nil {
		t.Fatalf("degradation after torn index page failed: %v", err)
	}
	if stats.Downgrades != 1 {
		t.Errorf("Downgrades = %d, want 1", stats.Downgrades)
	}
	if matchKey(ms) != matchKey(want) {
		t.Fatal("degraded result diverged from baseline")
	}
	if db.IOStats().ReadRetries == 0 {
		t.Error("checksum mismatches were not retried before degrading")
	}
}

// TestChaosHeapLossIsTyped loses a base heap page — the one thing
// degradation cannot route around — and asserts every strategy fails with
// the typed permanent classification intact, including through the
// fallback's error wrapping.
func TestChaosHeapLossIsTyped(t *testing.T) {
	for _, workers := range []int{1, 4} {
		db, r, s := chaosOpen(t, workers, fault.Options{Seed: 7007})
		if err := db.DropCache(); err != nil {
			t.Fatal(err)
		}
		rid, err := r.rel.RID(0)
		if err != nil {
			t.Fatal(err)
		}
		db.FaultDisk().LosePage(rid.Page)

		for _, strat := range []Strategy{ScanStrategy, TreeStrategy, IndexStrategy} {
			_, _, err := db.Join(r, s, Overlaps(), strat)
			if err == nil {
				t.Fatalf("workers=%d %s: join over lost heap page succeeded", workers, strat)
			}
			if !errors.Is(err, fault.ErrPermanent) {
				t.Fatalf("workers=%d %s: classification lost: %v", workers, strat, err)
			}
			if !fault.IsPermanent(err) || storage.IsTransient(err) {
				t.Fatalf("workers=%d %s: misclassified: %v", workers, strat, err)
			}
		}
	}
}

// TestChaosHeapLossSurfacesOnlyWhereTheJoinReads loses base heap pages
// under a tree join, which reads an R-tree item's page only when θ reads the
// item, not when Θ examines it. A lost page holding a θ candidate still
// fails the join with the permanent classification; a lost page whose
// tuples Θ examines but no θ reads leaves the answer byte-identical and
// records no downgrade, although a scan of the same collection fails on it.
func TestChaosHeapLossSurfacesOnlyWhereTheJoinReads(t *testing.T) {
	rs, ss, world := chaosRects()
	nearR := len(rs)
	// Past the world, a 12×12 checkerboard of squares: S takes the even
	// cells, R the odd ones, appended after the rest. The two sides' leaves
	// there overlap, so Θ examines R's squares, but no square overlaps one
	// of the other side, so θ never reads them.
	const cell, side = 40.0, 12
	for i := 0; i < side*side; i++ {
		x, y := world.MaxX+cell*float64(1+i%side), world.MaxY+cell*float64(1+i/side)
		sq := geom.NewRect(x+5, y+5, x+cell-5, y+cell-5)
		if (i%side+i/side)%2 == 0 {
			ss = append(ss, sq)
		} else {
			rs = append(rs, sq)
		}
	}
	healthy, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := healthy.Join(loadRects(t, healthy, "r", rs), loadRects(t, healthy, "s", ss),
		Overlaps(), ScanStrategy)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.BufferPages = 48
		cfg.Fault = &fault.Options{Seed: 9009}
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, s := loadRects(t, db, "r", rs), loadRects(t, db, "s", ss)
		pageOf := func(id int) storage.PageID {
			rid, err := r.rel.RID(id)
			if err != nil {
				t.Fatal(err)
			}
			return rid.Page
		}
		// The candidate page holds a matched tuple; the idle page is the last
		// square's, and no tuple from the world may share it.
		candidate, idle := pageOf(want[0].R), pageOf(len(rs)-1)
		for id := 0; id < nearR; id++ {
			if pageOf(id) == idle {
				t.Fatalf("near tuple %d shares the idle page %v", id, idle)
			}
		}

		for _, tc := range []struct {
			name string
			page storage.PageID
			fail bool
		}{{"candidate", candidate, true}, {"idle", idle, false}} {
			if err := db.DropCache(); err != nil {
				t.Fatal(err)
			}
			db.FaultDisk().LosePage(tc.page)
			ms, stats, err := db.Join(r, s, Overlaps(), TreeStrategy)
			switch {
			case tc.fail && (err == nil || !fault.IsPermanent(err)):
				t.Errorf("workers=%d %s page lost: tree join err = %v, want a permanent fault", workers, tc.name, err)
			case !tc.fail && err != nil:
				t.Errorf("workers=%d %s page lost: tree join failed: %v", workers, tc.name, err)
			case !tc.fail && (matchKey(ms) != matchKey(want) || stats.Downgrades != 0):
				t.Errorf("workers=%d %s page lost: %d matches (want %d), %d downgrades",
					workers, tc.name, len(ms), len(want), stats.Downgrades)
			}
			if _, _, err := db.Join(r, s, Overlaps(), ScanStrategy); !fault.IsPermanent(err) {
				t.Errorf("workers=%d %s page lost: the scan must read it and fail, got %v", workers, tc.name, err)
			}
			db.FaultDisk().HealPage(tc.page)
		}
	}
}

// TestChaosPreCancelledContext asserts an already-cancelled context aborts
// every strategy promptly with context.Canceled.
func TestChaosPreCancelledContext(t *testing.T) {
	db, r, s := chaosOpen(t, 4, fault.Options{Seed: 8008})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, strat := range []Strategy{ScanStrategy, TreeStrategy, IndexStrategy} {
		_, _, err := db.JoinContext(ctx, r, s, Overlaps(), strat)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got %v, want context.Canceled", strat, err)
		}
	}
	if _, _, err := db.SelectContext(ctx, s, NewRect(0, 0, 400, 400), Overlaps(), TreeStrategy); !errors.Is(err, context.Canceled) {
		t.Errorf("select: got %v, want context.Canceled", err)
	}
	rs, ss, world := chaosRects()
	if _, err := ZOverlapJoinCtx(ctx, rs, ss, world, 8, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("zorder: got %v, want context.Canceled", err)
	}
}

// TestChaosQueryTimeout configures a per-query deadline far below the
// injected device latency and asserts the deadline fires mid-descent with
// context.DeadlineExceeded, while a Join on a healthy twin completes.
func TestChaosQueryTimeout(t *testing.T) {
	rs, ss, _ := chaosRects()
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.BufferPages = 48
	cfg.QueryTimeout = 5 * time.Millisecond
	cfg.Fault = &fault.Options{Seed: 9009, ReadLatency: 2 * time.Millisecond}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := loadRects(t, db, "r", rs)
	s := loadRects(t, db, "s", ss)
	if err := db.DropCache(); err != nil {
		t.Fatal(err)
	}
	// Cold tree join: θ's heap reads alone need several 2ms reads, so the
	// 5ms budget cannot survive them.
	_, _, err = db.Join(r, s, Overlaps(), TreeStrategy)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// TestChaosCrashRecoveryUnderTransientReads crosses the fault schedule with
// the crash harness: the checkpointing workload is killed at write ordinals
// across its length on a device whose reads fail transiently, and Reopen —
// whose log scan and redo read the raw device, not the pool — must retry
// through the faults to an admissible committed prefix, as it does on a
// healthy device. Without a retry policy on recovery's reads the first
// faulted log page fails the Reopen.
func TestChaosCrashRecoveryUnderTransientReads(t *testing.T) {
	cfg := crashConfig(1, 1)
	// One read in ten faults: a page exhausting recovery's four attempts is a
	// one-in-ten-thousand event this seed's schedule does not contain.
	cfg.Fault = &fault.Options{Seed: 4003, TransientReadRate: 0.10}
	steps := stepsWithCheckpointEvery(3, true)
	writes := dryRunWrites(t, cfg, steps)
	var faulted, bounded int64
	for n := int64(2); n <= writes; n += 3 {
		label := fmt.Sprintf("transient reads, crash at write %d", n)
		db, completed, crash := runToCrash(t, cfg, steps, label, func(fd *fault.Disk) { fd.SetCrashAfterWrites(n) })
		if crash == nil {
			t.Fatalf("%s: the schedule never fired", label)
		}
		fd := db.FaultDisk()
		fd.Reboot()
		before := fd.Stats().ReadFaults
		rdb, stats, err := Reopen(cfg, fd)
		if err != nil {
			t.Fatalf("%s: Reopen: %v", label, err)
		}
		faulted += fd.Stats().ReadFaults - before
		if stats.HeadPage > 0 {
			bounded++
		}
		// The step in flight may or may not have committed.
		matched := false
		for j := completed; j >= completed-1 && !matched; j-- {
			m := crashModel{}
			if j >= 0 {
				m = steps[j].model
			}
			ok, err := stateMatches(rdb, m)
			if err != nil {
				t.Fatalf("%s: verifying recovered state: %v", label, err)
			}
			matched = ok
		}
		if !matched {
			t.Fatalf("%s: recovered state matches no admissible prefix (crash in step %d, stats %+v)", label, completed, stats)
		}
	}
	if faulted == 0 || bounded == 0 {
		t.Errorf("sweep saw %d read faults during recovery and %d recoveries from a stamped head: it needs both", faulted, bounded)
	}
}
