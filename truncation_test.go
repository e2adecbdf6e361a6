package spatialjoin

// Log-truncation I/O guard: truncation is a floor the checkpoint's own
// end-record sync stamps, not a sweep. These tests pin what that buys — no
// device I/O to truncate, a recovery that reads only the live log however
// long the history, deltas that ship only the live log — and the invariant
// it rests on (I4): the stamp never outruns the checkpoint that justifies
// it, wherever a crash lands in a multi-page end record.

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"spatialjoin/internal/fault"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/storage"
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
		pages := logEnd(db)
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
	logBefore := logEnd(dry)
	runSteps(t, dry, steps[last:])
	inside, writesAfter := fault.RecordedCrashPoints(), dry.DiskStats().Writes-opened
	fault.DisarmCrashPoints()
	if span := logEnd(dry) - logBefore; span < 3 {
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
// checkpoint left below the floor in the head segment stay on this device,
// but never travel.
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
	pages := logEnd(db)
	if cs.PagesTruncated == 0 || info.LogPages != pages-cs.PagesTruncated {
		t.Errorf("delta shipped %d log pages of %d with %d dead, want exactly the live ones",
			info.LogPages, pages, cs.PagesTruncated)
	}

	full, err := db.ExportSnapshot(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	pages, head := logEnd(db), db.wal.HeadPage()
	if head == 0 || full.LogPages != pages-head {
		t.Errorf("full snapshot shipped %d log pages of %d with head %d, want exactly the live ones",
			full.LogPages, pages, head)
	}
}

// logEnd is one past the last page db's log has allocated, numbered like
// HeadPage: the head's segment starts HeadPage-From pages into the log, and
// every segment but the newest is full.
func logEnd(db *Database) int {
	segs := db.WALSegments()
	end := db.wal.HeadPage() - int(segs[0].From)
	for _, s := range segs {
		end += db.Device().NumPages(s.File)
	}
	return end
}

// logSpace reports the pages db's log holds on the device, its live pages
// (head to end), and any page of a file that is neither the log's nor one
// of the given data files — space nothing accounts for.
func logSpace(t *testing.T, db *Database, data ...storage.FileID) (held, live, orphaned int) {
	t.Helper()
	dev := db.Device()
	owned := make(map[storage.FileID]bool)
	for _, f := range data {
		owned[f] = true
	}
	for _, s := range db.WALSegments() {
		owned[s.File] = true
		held += dev.NumPages(s.File)
	}
	for f := storage.FileID(0); int(f) < dev.Files(); f++ {
		if !owned[f] {
			orphaned += dev.NumPages(f)
		}
	}
	return held, logEnd(db) - db.wal.HeadPage(), orphaned
}

// segmentPages is the log's segment size: the most dead log a checkpoint
// may leave on the device, the dead head of the segment it keeps.
const segmentPages = 32

// TestLogGivesSpaceBack runs 20 insert-then-checkpoint rounds: after each,
// the log holds at most one segment's worth of pages beyond its live ones,
// and every other page of the device belongs to the collection. Without
// segment drops the log's pages grow with every round. The space is
// watched, not inferred: /metrics reports the pages the log holds and the
// segments dropped, and the flight recorder holds one event per drop.
func TestLogGivesSpaceBack(t *testing.T) {
	cfg := crashConfig(1, 1)
	cfg.Metrics = obs.NewRegistry()
	var lastSeq uint64
	for _, e := range obs.Events() {
		lastSeq = max(lastSeq, e.Seq)
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.CreateCollection("r")
	if err != nil {
		t.Fatal(err)
	}
	data := []storage.FileID{c.rel.FileID()}
	for round := 0; round < 20; round++ {
		insertRects(t, c, 10*round, 10)
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		held, live, orphaned := logSpace(t, db, data...)
		if held > live+segmentPages || orphaned != 0 {
			t.Fatalf("round %d: the log holds %d device pages for %d live ones, and %d pages belong to no one; want at most %d and none",
				round, held, live, orphaned, live+segmentPages)
		}
	}
	dropped := db.WALStats().SegmentsDropped
	if dropped == 0 {
		t.Fatal("20 checkpoints dropped no segment; the test needs a log longer than one")
	}
	var scrape bytes.Buffer
	if err := cfg.Metrics.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	held, _, _ := logSpace(t, db, data...)
	for _, line := range []string{
		fmt.Sprintf("spatialjoin_wal_log_pages %d\n", held),
		fmt.Sprintf("spatialjoin_wal_segments_dropped_total %d\n", dropped),
	} {
		if !strings.Contains(scrape.String(), line) {
			t.Errorf("scrape lacks %q", line)
		}
	}
	var events int64
	for _, e := range obs.Events() {
		if e.Seq > lastSeq && e.Kind == obs.RecLogSegmentDrop {
			events++
		}
	}
	if events != dropped {
		t.Errorf("the flight recorder holds %d segment drops, the log counted %d", events, dropped)
	}
	rdb, _, err := Reopen(cfg, db.Device())
	if err != nil {
		t.Fatal(err)
	}
	if rc, _ := rdb.Collection("r"); rc == nil || rc.Len() != 200 {
		t.Fatal("recovery after the drops lost objects")
	}
}

// TestCrashBeforeSegmentDrop crashes a truncating checkpoint after its end
// record is durable but before it gives back the segments below the floor,
// at every such checkpoint of the workload. Recovery must drop them: the
// recovered device holds no log pages beyond the live log's segments, and
// it has emptied exactly the files an uncrashed run of the same steps does.
func TestCrashBeforeSegmentDrop(t *testing.T) {
	cfg := crashConfig(1, 1)
	var steps []crashStep
	steps = append(steps, crashStep{name: "create", run: func(db *Database) error {
		_, err := db.CreateCollection("r")
		return err
	}})
	for round := 0; round < 12; round++ {
		round := round
		steps = append(steps, crashStep{name: fmt.Sprintf("round-%d", round), run: func(db *Database) error {
			c, _ := db.Collection("r")
			for i := 10 * round; i < 10*round+10; i++ {
				if _, err := c.Insert(crashRect(i), "x"); err != nil {
					return err
				}
			}
			_, err := db.Checkpoint()
			return err
		}})
	}

	fault.StartCrashPointRecording()
	dry, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runSteps(t, dry, steps)
	drops := fault.RecordedCrashPoints()["wal.drop-segment"]
	fault.DisarmCrashPoints()
	if drops == 0 {
		t.Fatal("no checkpoint of the workload drops a segment")
	}

	for k := 1; k <= drops; k++ {
		label := fmt.Sprintf("wal.drop-segment#%d", k)
		db, completed, crash := runToCrash(t, cfg, steps, label, func(*fault.Disk) { fault.ArmCrashPoint("wal.drop-segment", k) })
		if crash == nil {
			t.Fatalf("%s: the crash point never fired", label)
		}
		db.FaultDisk().Reboot()
		rdb, stats, err := Reopen(cfg, db.Device())
		if err != nil {
			t.Fatalf("%s: Reopen: %v", label, err)
		}
		if stats.SegmentsDropped == 0 {
			t.Errorf("%s: recovery dropped no stranded segment", label)
		}
		c, _ := rdb.Collection("r")
		if c == nil || c.Len() != 10*completed {
			t.Fatalf("%s: recovered collection does not hold the %d committed rounds", label, completed)
		}
		held, live, orphaned := logSpace(t, rdb, c.rel.FileID())
		if held > live+segmentPages || orphaned != 0 {
			t.Errorf("%s: the recovered log holds %d device pages for %d live ones, and %d pages belong to no one",
				label, held, live, orphaned)
		}
		twin, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runSteps(t, twin, steps[:completed+1])
		dev, want := rdb.Device(), twin.Device()
		if dev.Files() != want.Files() {
			t.Fatalf("%s: %d files after recovery, %d in the uncrashed run", label, dev.Files(), want.Files())
		}
		for f := storage.FileID(0); int(f) < dev.Files(); f++ {
			if (dev.NumPages(f) == 0) != (want.NumPages(f) == 0) {
				t.Errorf("%s: file %d holds %d pages after recovery, %d in the uncrashed run", label, f, dev.NumPages(f), want.NumPages(f))
			}
		}
	}
}
