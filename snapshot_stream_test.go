package spatialjoin

// Tests of the one snapshot stream: every torn or flipped byte of a full
// snapshot or a delta is rejected, and a full snapshot reproduces the
// device it was cut from.

import (
	"bytes"
	"testing"

	"spatialjoin/internal/storage"
)

// smallStreams exports a full snapshot and a delta of a database small
// enough that every byte of both can be swept.
func smallStreams(t *testing.T, cfg Config) (full, delta []byte) {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := db.CreateCollection("r")
	if err != nil {
		t.Fatal(err)
	}
	insertRects(t, c, 0, 18)
	var fb, db2 bytes.Buffer
	info, err := db.ExportSnapshot(&fb)
	if err != nil {
		t.Fatal(err)
	}
	since := db.DurableLSN()
	insertRects(t, c, 18, 3)
	if _, err := db.ExportDelta(&db2, since, []storage.PageID{{File: 1, Page: 0}}); err != nil {
		t.Fatal(err)
	}
	t.Logf("full snapshot: %d pages, %d bytes; delta: %d bytes", info.Pages, fb.Len(), db2.Len())
	return fb.Bytes(), db2.Bytes()
}

// TestSnapshotStreamRejectsEveryTornOrFlippedByte cuts a full snapshot and
// a delta at every length and flips each of their bytes in turn. Every case
// must fail: full streams through SeedFromSnapshot without leaking a
// database, deltas through ApplySnapshotDelta.
func TestSnapshotStreamRejectsEveryTornOrFlippedByte(t *testing.T) {
	cfg := crashConfig(1, 1)
	full, delta := smallStreams(t, cfg)
	baseline := settledTestGoroutines()

	seed := func(data []byte) error {
		db, _, err := SeedFromSnapshot(cfg, bytes.NewReader(data))
		if db != nil {
			db.Close()
			if err != nil {
				t.Error("a failed seed leaked a database")
			}
		}
		return err
	}
	apply := func(data []byte) error {
		_, err := ApplySnapshotDelta(storage.NewDisk(cfg.PageSize), bytes.NewReader(data))
		return err
	}
	for _, tc := range []struct {
		name   string
		stream []byte
		read   func([]byte) error
	}{{"full", full, seed}, {"delta", delta, apply}} {
		if err := tc.read(tc.stream); err != nil {
			t.Fatalf("%s: intact stream rejected: %v", tc.name, err)
		}
		for n := 0; n < len(tc.stream); n++ {
			if tc.read(tc.stream[:n]) == nil {
				t.Errorf("%s: stream cut at byte %d of %d accepted", tc.name, n, len(tc.stream))
			}
		}
		for i := range tc.stream {
			bad := bytes.Clone(tc.stream)
			bad[i] ^= 0xFF
			if tc.read(bad) == nil {
				t.Errorf("%s: byte %d of %d flipped and accepted", tc.name, i, len(tc.stream))
			}
		}
	}
	if after := settledTestGoroutines(); after > baseline {
		t.Errorf("goroutines settled at %d after the sweep, started at %d — leak", after, baseline)
	}
}

// TestSnapshotRoundTripReproducesDevice applies a full snapshot onto a
// fresh disk: the geometry and every page's recorded checksum must match
// the source's, except that the log pages below the head read as zero.
func TestSnapshotRoundTripReproducesDevice(t *testing.T) {
	cfg := crashConfig(1, 1)
	src, stream, _ := exportWorkload(t, cfg)
	head, logFiles := src.wal.HeadPage(), src.logFiles()
	if head == 0 {
		t.Fatal("the workload left no dead log pages")
	}
	r := bytes.NewReader(stream)
	info, err := ReadSnapshotHeader(r)
	if err != nil {
		t.Fatal(err)
	}
	dst := storage.NewDisk(cfg.PageSize)
	if _, err := info.apply(r, dst); err != nil {
		t.Fatal(err)
	}
	dev := src.Device()
	if files := dev.Files(); dst.Files() != files {
		t.Fatalf("fresh disk has %d files, source %d", dst.Files(), files)
	}
	zero := storage.PageChecksum(make([]byte, cfg.PageSize))
	for f := 0; f < dst.Files(); f++ {
		id := storage.FileID(f)
		if dst.NumPages(id) != dev.NumPages(id) {
			t.Errorf("file %d: %d pages, source %d", f, dst.NumPages(id), dev.NumPages(id))
			continue
		}
		for p := 0; p < dev.NumPages(id); p++ {
			pid := storage.PageID{File: id, Page: int32(p)}
			want, _ := dev.Checksum(pid)
			if from, ok := logFiles[id]; ok && int32(p) < from {
				want = zero
			}
			if got, _ := dst.Checksum(pid); got != want {
				t.Errorf("page %v: checksum %08x, want %08x", pid, got, want)
			}
		}
	}
}

// TestSnapshotsAfterDropsMatchGeometry seeds a replica from a full snapshot
// and then patches it from a delta, each taken after checkpoints have given
// log segments back: either way the replica holds exactly the source's
// files, page count for page count — a dropped segment arrives as the empty
// file it is — and reopens onto the source's collection.
func TestSnapshotsAfterDropsMatchGeometry(t *testing.T) {
	cfg := crashConfig(1, 1)
	cfg.Fault = nil
	src, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	c, err := src.CreateCollection("r")
	if err != nil {
		t.Fatal(err)
	}
	rounds := func(from, n int) {
		for round := from; round < from+n; round++ {
			insertRects(t, c, 10*round, 10)
			if _, err := src.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	sameGeometry := func(label string, dev storage.Device) {
		t.Helper()
		want := src.Device()
		if dev.Files() != want.Files() {
			t.Fatalf("%s: replica has %d files, source %d", label, dev.Files(), want.Files())
		}
		for f := storage.FileID(0); int(f) < want.Files(); f++ {
			if dev.NumPages(f) != want.NumPages(f) {
				t.Errorf("%s: file %d holds %d pages on the replica, %d on the source", label, f, dev.NumPages(f), want.NumPages(f))
			}
		}
	}
	holds := func(label string, db *Database) {
		t.Helper()
		if rc, _ := db.Collection("r"); rc == nil || rc.Len() != c.Len() {
			t.Fatalf("%s: replica does not hold the source's %d objects", label, c.Len())
		}
	}

	rounds(0, 8)
	dropped := src.WALStats().SegmentsDropped
	if dropped == 0 {
		t.Fatal("no segment dropped before the full snapshot; the test needs one")
	}
	var full bytes.Buffer
	if _, err := src.ExportSnapshot(&full); err != nil {
		t.Fatal(err)
	}
	rep, _, err := SeedFromSnapshot(cfg, &full)
	if err != nil {
		t.Fatal(err)
	}
	sameGeometry("full snapshot", rep.Device())
	holds("full snapshot", rep)
	since := rep.RecoveryInfo().NextApplyFloor
	disk := rep.Device().(*storage.Disk)
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}

	rounds(8, 8)
	if src.WALStats().SegmentsDropped == dropped {
		t.Fatal("no segment dropped between the snapshots; the test needs one")
	}
	var pages []storage.PageID
	logFiles := src.logFiles()
	for f := storage.FileID(0); int(f) < src.Device().Files(); f++ {
		if _, ok := logFiles[f]; ok {
			continue
		}
		for p := 0; p < src.Device().NumPages(f); p++ {
			pages = append(pages, storage.PageID{File: f, Page: int32(p)})
		}
	}
	var delta bytes.Buffer
	if _, err := src.ExportDelta(&delta, since, pages); err != nil {
		t.Fatal(err)
	}
	if _, err := ApplySnapshotDelta(disk, &delta); err != nil {
		t.Fatal(err)
	}
	sameGeometry("delta", disk)
	rep, _, err = ReopenAt(cfg, disk, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	holds("delta", rep)
}
