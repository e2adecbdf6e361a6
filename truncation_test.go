package spatialjoin

// Log-truncation I/O guard: truncation is a floor the checkpoint's own
// end-record sync stamps, not a sweep. These tests pin what that buys — no
// device I/O to truncate, a recovery that reads only the live log however
// long the history, deltas that ship only the live log — and the invariant
// it rests on (I4): the stamp never outruns the checkpoint that justifies
// it, wherever a crash lands in a multi-page end record.

import (
	"fmt"
	"io"
	"testing"

	"spatialjoin/internal/fault"
	"spatialjoin/internal/wal"
)

// insertRects appends n workload rectangles to c, continuing at rect from.
func insertRects(t *testing.T, c *Collection, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if _, err := c.Insert(crashRect(i), "x"); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
}

// TestTruncatingCheckpointCostsNoExtraIO checks a truncating checkpoint
// moves the device by exactly its flush sweep plus the log pages its syncs
// append: no page is read, and none is written to erase the log.
func TestTruncatingCheckpointCostsNoExtraIO(t *testing.T) {
	cfg := crashConfig(1, 1)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runSteps(t, db, crashSteps())
	r, _ := db.Collection("r")
	insertRects(t, r, 20, 6) // dirty frames for the sweep to flush
	dev := db.Device()
	before, logBefore := dev.Stats(), dev.NumPages(wal.LogFileID)
	cs, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	after, appended := dev.Stats(), dev.NumPages(wal.LogFileID)-logBefore
	if cs.PagesFlushed == 0 || cs.PagesTruncated == 0 || appended == 0 {
		t.Fatalf("checkpoint flushed %d pages, truncated %d, appended %d log pages: the test needs all three",
			cs.PagesFlushed, cs.PagesTruncated, appended)
	}
	if got, want := after.Writes-before.Writes, int64(cs.PagesFlushed+appended); got != want {
		t.Errorf("checkpoint wrote %d pages, want %d (%d flushed + %d log pages appended): truncation must write nothing",
			got, want, cs.PagesFlushed, appended)
	}
	if got := after.Reads - before.Reads; got != 0 {
		t.Errorf("checkpoint read %d pages, want 0: truncation must read nothing", got)
	}
}

// TestReopenReadsOnlyTheLiveLog checks recovery's log reads depend on the
// log since the last checkpoint, not on the history before it: after 2 and
// after 20 checkpoints Reopen reads the same number of log pages, all of
// them live. A scan that starts at page 0 fails both halves.
func TestReopenReadsOnlyTheLiveLog(t *testing.T) {
	reads := make(map[int]int64)
	for _, k := range []int{2, 20} {
		cfg := crashConfig(1, 1)
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := db.CreateCollection("r")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for round := 0; round < k; round++ {
			insertRects(t, c, n, 10)
			n += 10
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		insertRects(t, c, n, 5) // the tail every recovery must read
		dev := db.Device()
		pages := dev.NumPages(wal.LogFileID)
		dead := int(db.CheckpointTotals().PagesTruncated)
		rdb, stats, err := Reopen(cfg, dev)
		if err != nil {
			t.Fatalf("k=%d: Reopen: %v", k, err)
		}
		if rc, _ := rdb.Collection("r"); rc == nil || rc.Len() != n+5 {
			t.Fatalf("k=%d: recovered collection lost objects", k)
		}
		if int(stats.HeadPage) != dead {
			t.Errorf("k=%d: recovery's head page = %d, want %d (the pages truncation counted dead)", k, stats.HeadPage, dead)
		}
		if live := int64(pages - dead); stats.LogPagesRead > live+2 {
			t.Errorf("k=%d: recovery read %d log pages of a %d-page log with %d live", k, stats.LogPagesRead, pages, live)
		}
		reads[k] = stats.LogPagesRead
	}
	if d := reads[20] - reads[2]; d < -1 || d > 1 {
		t.Errorf("recovery read %d log pages after 2 checkpoints and %d after 20: history leaked into the scan", reads[2], reads[20])
	}
}

// TestCrashSweepMultiPageCheckpointEnd is invariant I4 under fire: a
// truncating checkpoint whose end record spans several log pages (its
// manifest names many collections) is crashed after every page of its
// syncs, after the syncs, after it returns, and with its final page torn.
// Recovery must always find a manifest — the new checkpoint's, or the
// previous one's — and land on the committed state; a stamp that reached
// the device before its end record was whole would start the scan above
// every manifest and lose the catalog.
func TestCrashSweepMultiPageCheckpointEnd(t *testing.T) {
	cfg := crashConfig(1, 1)
	const extras = 60
	steps := crashSteps()
	model := steps[len(steps)-1].model
	add := func(name string, run func(db *Database) error) {
		steps = append(steps, crashStep{name: name, run: run, model: model})
	}
	add("checkpoint-1", func(db *Database) error { _, err := db.Checkpoint(); return err })
	add("create-extras", func(db *Database) error {
		for i := 0; i < extras; i++ {
			if _, err := db.CreateCollection(fmt.Sprintf("extra-collection-%02d", i)); err != nil {
				return err
			}
		}
		return nil
	})
	last := len(steps)
	add("checkpoint-2", func(db *Database) error { _, err := db.Checkpoint(); return err })

	// A recording dry run: how often each crash point fires before and
	// inside the last checkpoint, and which device writes are its.
	dry, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opened := dry.DiskStats().Writes // write ordinals count from when a schedule is armed, after Open
	fault.StartCrashPointRecording()
	defer fault.DisarmCrashPoints()
	runSteps(t, dry, steps[:last])
	before, writesBefore := fault.RecordedCrashPoints(), dry.DiskStats().Writes-opened
	logBefore := dry.Device().NumPages(wal.LogFileID)
	runSteps(t, dry, steps[last:])
	inside, writesAfter := fault.RecordedCrashPoints(), dry.DiskStats().Writes-opened
	fault.DisarmCrashPoints()
	if span := dry.Device().NumPages(wal.LogFileID) - logBefore; span < 3 {
		t.Fatalf("the last checkpoint appended %d log pages; the sweep needs an end record spanning at least 3", span)
	}

	check := func(label string, arm func(fd *fault.Disk)) {
		t.Helper()
		db, completed, crash := runToCrash(t, cfg, steps, label, arm)
		if crash == nil || completed != last {
			t.Fatalf("%s: crash %v after %d steps, want one inside step %d", label, crash, completed, last)
		}
		db.FaultDisk().Reboot()
		rdb, stats, err := Reopen(cfg, db.Device())
		if err != nil {
			t.Fatalf("%s: Reopen: %v", label, err)
		}
		if stats.CheckpointLSN == 0 || stats.BaseLSN == 0 {
			t.Fatalf("%s: recovery found no checkpoint above a truncated log: %+v", label, stats)
		}
		mustMatch(t, rdb, model, label)
		for i := 0; i < extras; i++ {
			if _, ok := rdb.Collection(fmt.Sprintf("extra-collection-%02d", i)); !ok {
				t.Fatalf("%s: recovered catalog lost extra-collection-%02d", label, i)
			}
		}
	}
	for _, point := range []string{"wal.sync.page", "wal.synced", "checkpoint.end"} {
		if inside[point] == before[point] {
			t.Fatalf("the last checkpoint never reached crash point %q", point)
		}
		for k := before[point] + 1; k <= inside[point]; k++ {
			point, k := point, k
			check(fmt.Sprintf("%s#%d", point, k), func(*fault.Disk) { fault.ArmCrashPoint(point, k) })
		}
	}
	// Every device write of the checkpoint torn in turn; the last is the
	// final page of its end record's sync — the one page that carries the
	// new floor.
	for n := writesBefore + 1; n <= writesAfter; n++ {
		n := n
		check(fmt.Sprintf("write %d of %d torn", n-writesBefore, writesAfter-writesBefore),
			func(fd *fault.Disk) { fd.SetCrashAfterWrites(n) })
	}
}

// TestSnapshotsShipOnlyTheLiveLog checks a snapshot delta and a full
// snapshot both carry the log from the truncation head on: the dead pages a
// checkpoint left below the floor stay on this device, but never travel.
func TestSnapshotsShipOnlyTheLiveLog(t *testing.T) {
	cfg := crashConfig(1, 1)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runSteps(t, db, crashSteps())
	cs, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r, _ := db.Collection("r")
	insertRects(t, r, 20, 3)
	info, err := db.ExportDelta(io.Discard, cs.EndLSN, nil)
	if err != nil {
		t.Fatal(err)
	}
	pages := db.Device().NumPages(wal.LogFileID)
	if cs.PagesTruncated == 0 || info.LogPages != pages-cs.PagesTruncated {
		t.Errorf("delta shipped %d log pages of %d with %d dead, want exactly the live ones",
			info.LogPages, pages, cs.PagesTruncated)
	}

	full, err := db.ExportSnapshot(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	pages, head := db.Device().NumPages(wal.LogFileID), db.wal.HeadPage()
	if head == 0 || full.LogPages != pages-head {
		t.Errorf("full snapshot shipped %d log pages of %d with head %d, want exactly the live ones",
			full.LogPages, pages, head)
	}
}
