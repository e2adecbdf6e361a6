package wal

import (
	"bytes"
	"errors"
	"testing"

	"spatialjoin/internal/storage"
)

// appendTxns runs n committed single-image transactions against the log,
// each writing a distinct pattern onto a fresh page of dataFile.
func appendTxns(t *testing.T, dev *storage.Disk, l *Log, dataFile storage.FileID, firstTxn uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		txn := firstTxn + uint64(i)
		pid, err := dev.AllocPage(dataFile)
		if err != nil {
			t.Fatal(err)
		}
		img := make([]byte, dev.PageSize())
		for j := range img {
			img[j] = byte(int(txn) + j)
		}
		l.Begin(txn)
		l.AppendImage(txn, pid, img)
		if _, err := l.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
}

// scanLog assembles a device's live logical stream, as recovery does.
func scanLog(t *testing.T, dev storage.Device) scan {
	t.Helper()
	head := findHead(dev)
	sc, err := scanStream(dev, &head)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// streamOf reassembles a device's live logical record stream.
func streamOf(t *testing.T, dev storage.Device) (LSN, []Record) {
	t.Helper()
	sc := scanLog(t, dev)
	records, _ := parseStream(sc.base, sc.stream)
	return sc.base, records
}

// assertSameRecords fails unless the two record slices are identical.
func assertSameRecords(t *testing.T, want, got []Record) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("record count: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.LSN != g.LSN || w.Type != g.Type || w.Txn != g.Txn || w.Page != g.Page || !bytes.Equal(w.Data, g.Data) {
			t.Fatalf("record %d diverges: want %+v, got %+v", i, w, g)
		}
	}
}

// TestTailRoundTrip ships a primary's stream chunk by chunk into a fresh
// follower log and checks the two devices hold identical logical streams.
func TestTailRoundTrip(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	dataFile := dev.CreateFile()
	appendTxns(t, dev, l, dataFile, 1, 5)

	fdev, fl := newLogOnDisk(t, 1)
	// Create wrote the identical header record on both logs, so the
	// follower tails from its own durable end.
	r, err := OpenTail(dev, fl.DurableLSN())
	if err != nil {
		t.Fatal(err)
	}
	for {
		base, data, err := r.Next(64)
		if err != nil {
			t.Fatal(err)
		}
		if data == nil {
			break
		}
		if _, err := fl.AppendRaw(base, data); err != nil {
			t.Fatal(err)
		}
	}
	if fl.DurableLSN() != l.DurableLSN() {
		t.Fatalf("follower durable %d, primary durable %d", fl.DurableLSN(), l.DurableLSN())
	}
	_, want := streamOf(t, dev)
	_, got := streamOf(t, fdev)
	assertSameRecords(t, want, got)
}

// TestTailChunkBoundaries checks chunks respect max at record boundaries:
// concatenated chunks reproduce the stream exactly and every chunk but a
// lone oversized record stays under max.
func TestTailChunkBoundaries(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	dataFile := dev.CreateFile()
	appendTxns(t, dev, l, dataFile, 1, 4)

	const max = 100
	r, err := OpenTail(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	var shipped []byte
	start := LSN(-1)
	for {
		base, data, err := r.Next(max)
		if err != nil {
			t.Fatal(err)
		}
		if data == nil {
			break
		}
		if start < 0 {
			start = base
		} else if base != start+LSN(len(shipped)) {
			t.Fatalf("chunk at %d not contiguous with %d+%d", base, start, len(shipped))
		}
		// A chunk may exceed max only when its first record alone does.
		if len(data) > max {
			if n := completePrefix(base, data, 0); n != len(data) {
				t.Fatalf("oversized chunk is not complete records")
			}
			if first := completePrefix(base, data, 1); first != len(data) {
				t.Fatalf("oversized chunk of %d bytes holds more than one record (first ends at %d)", len(data), first)
			}
		}
		shipped = append(shipped, data...)
	}
	if start != 0 {
		t.Fatalf("stream started at %d, want 0", start)
	}
	if sc := scanLog(t, dev); sc.base != 0 || !bytes.Equal(shipped, sc.stream) {
		t.Fatalf("shipped bytes diverge from the device stream (base %d, %d vs %d bytes)", sc.base, len(shipped), len(sc.stream))
	}
}

// TestTailIncremental checks a caught-up reader reports nil and picks up
// records appended after it drained.
func TestTailIncremental(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	dataFile := dev.CreateFile()
	appendTxns(t, dev, l, dataFile, 1, 2)

	r, err := OpenTail(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, data, err := r.Next(0); err != nil || data == nil {
		t.Fatalf("first drain: data=%v err=%v", data, err)
	}
	if _, data, err := r.Next(0); err != nil || data != nil {
		t.Fatalf("caught-up reader returned data=%v err=%v", data, err)
	}
	before := r.Pos()
	appendTxns(t, dev, l, dataFile, 3, 1)
	base, data, err := r.Next(0)
	if err != nil {
		t.Fatal(err)
	}
	if base != before || data == nil {
		t.Fatalf("post-append read: base=%d want %d, data=%v", base, before, data)
	}
	records, consumed := parseStream(base, data)
	if int(consumed) != len(data) || len(records) != 3 {
		t.Fatalf("new chunk parsed to %d records / %d of %d bytes", len(records), consumed, len(data))
	}
}

// TestTailTruncatedAway checks a reader asking below the surviving base
// gets ErrTruncatedAway, while one asking at the follower's real position
// above the floor still works.
func TestTailTruncatedAway(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	dataFile := dev.CreateFile()
	appendTxns(t, dev, l, dataFile, 1, 6)
	begin := l.AppendCheckpointBegin()
	if _, err := l.AppendCheckpointEnd(Checkpoint{BeginLSN: begin, NextTxn: 7}, true); err != nil {
		t.Fatal(err)
	}
	dead := l.TruncateBelow(begin)
	if dead == 0 {
		t.Fatal("truncation reclaimed nothing; the test needs a truncated prefix")
	}
	before := dev.Stats().Reads
	if _, err := OpenTail(dev, 0); !errors.Is(err, ErrTruncatedAway) {
		t.Fatalf("OpenTail(0) after truncation: err=%v, want ErrTruncatedAway", err)
	}
	if reads, live := dev.Stats().Reads-before, int64(dev.NumPages(LogFileID)-dead); reads > live {
		t.Fatalf("OpenTail(0) read %d log pages to refuse, more than the %d live ones: it read a dead page", reads, live)
	}
	r, err := OpenTail(dev, l.DurableLSN())
	if err != nil {
		t.Fatal(err)
	}
	if _, data, err := r.Next(0); err != nil || data != nil {
		t.Fatalf("tail at durable end: data=%v err=%v", data, err)
	}
	appendTxns(t, dev, l, dataFile, 7, 1)
	if _, data, err := r.Next(0); err != nil || data == nil {
		t.Fatalf("tail past truncation: data=%v err=%v", data, err)
	}
}

// TestTailInFlightAllocation checks the reader treats an allocated but
// unwritten log page as in-flight — caught up, no error — and resumes once
// the appender seals it.
func TestTailInFlightAllocation(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	dataFile := dev.CreateFile()
	appendTxns(t, dev, l, dataFile, 1, 1)

	r, err := OpenTail(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, data, err := r.Next(0); err != nil || data == nil {
		t.Fatalf("drain: data=%v err=%v", data, err)
	}
	// Simulate the appender's alloc-before-write window.
	if _, err := dev.AllocPage(LogFileID); err != nil {
		t.Fatal(err)
	}
	if _, data, err := r.Next(0); err != nil || data != nil {
		t.Fatalf("reader trusted an in-flight page: data=%v err=%v", data, err)
	}
}

// TestAppendRawRejects checks the follower-side validation: a chunk at the
// wrong offset and a corrupted chunk are both rejected without touching
// the log.
func TestAppendRawRejects(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	dataFile := dev.CreateFile()
	appendTxns(t, dev, l, dataFile, 1, 2)

	r, err := OpenTail(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	base, data, err := r.Next(0)
	if err != nil || data == nil {
		t.Fatal(err)
	}

	_, fl := newLogOnDisk(t, 1)
	end := fl.DurableLSN()
	if _, err := fl.AppendRaw(end+1, nil); err == nil {
		t.Fatal("AppendRaw at the wrong offset succeeded")
	}
	chunk := append([]byte(nil), data[int(end-base):]...)
	corrupt := append([]byte(nil), chunk...)
	corrupt[len(corrupt)/2] ^= 0xff
	if _, err := fl.AppendRaw(end, corrupt); err == nil {
		t.Fatal("AppendRaw of a corrupt chunk succeeded")
	}
	if got := fl.DurableLSN(); got != end {
		t.Fatalf("rejected chunk moved the log: durable %d, want %d", got, end)
	}
	recs, err := fl.AppendRaw(end, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("valid chunk parsed to no records")
	}
}

// copyLogTo clones the log file of src onto a fresh disk, leaving every
// data file behind — the shape of a follower that holds the stream but has
// applied none of it.
func copyLogTo(t *testing.T, src *storage.Disk) *storage.Disk {
	t.Helper()
	dst := storage.NewDisk(src.PageSize())
	if id := dst.CreateFile(); id != LogFileID {
		t.Fatalf("fresh disk created file %d", id)
	}
	for p := 0; p < src.NumPages(LogFileID); p++ {
		id := storage.PageID{File: LogFileID, Page: int32(p)}
		buf, err := src.ReadPage(id)
		if err != nil {
			t.Fatal(err)
		}
		did, err := dst.AllocPage(LogFileID)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.WritePage(did, buf); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestApplyFloorIgnoresDPT is the soundness case ApplyFloor exists for: a
// checkpoint whose DPT omits a page (the primary flushed it) must not stop
// a follower that never applied the image from replaying it.
func TestApplyFloorIgnoresDPT(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	dataFile := dev.CreateFile()
	appendTxns(t, dev, l, dataFile, 1, 1)
	// The checkpoint's empty DPT says every earlier image is on the
	// primary's device.
	begin := l.AppendCheckpointBegin()
	if _, err := l.AppendCheckpointEnd(Checkpoint{BeginLSN: begin, NextTxn: 2}, false); err != nil {
		t.Fatal(err)
	}

	target := storage.PageID{File: dataFile, Page: 0}
	bounded := copyLogTo(t, dev)
	res, err := RecoverWith(bounded, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RecordsSkipped != 1 || res.Stats.RecordsReplayed != 0 {
		t.Fatalf("bounded recovery: skipped=%d replayed=%d, want 1/0",
			res.Stats.RecordsSkipped, res.Stats.RecordsReplayed)
	}

	floored := copyLogTo(t, dev)
	res, err = RecoverWith(floored, Options{GroupCommit: 1, ApplyFloor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RecordsReplayed != 1 {
		t.Fatalf("ApplyFloor=1 recovery replayed %d images, want 1", res.Stats.RecordsReplayed)
	}
	want := make([]byte, dev.PageSize())
	for j := range want {
		want[j] = byte(1 + j) // txn 1's image pattern from appendTxns
	}
	got, err := floored.ReadPage(target)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("ApplyFloor replay did not reconstruct the page")
	}

	// And the floor side: a follower that already applied everything below
	// its durable end replays nothing when recovering at that floor.
	applied := copyLogTo(t, dev)
	res, err = RecoverWith(applied, Options{GroupCommit: 1, ApplyFloor: 1})
	if err != nil {
		t.Fatal(err)
	}
	floor := res.Log.DurableLSN()
	again, err := RecoverWith(applied, Options{GroupCommit: 1, ApplyFloor: floor})
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.RecordsReplayed != 0 || again.Stats.RecordsSkipped != 1 {
		t.Fatalf("floored re-recovery: replayed=%d skipped=%d, want 0/1",
			again.Stats.RecordsReplayed, again.Stats.RecordsSkipped)
	}
}

// TestTailAcrossTruncationUnderReader checks truncation under live
// readers: one that drained the stream keeps streaming afterwards, and one
// that opened before the truncation still delivers the full pre-truncation
// stream it buffered — raising the floor never corrupts a reader that
// already consumed the pages below it.
func TestTailAcrossTruncationUnderReader(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	dataFile := dev.CreateFile()
	appendTxns(t, dev, l, dataFile, 1, 4)

	ahead, err := OpenTail(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, data, err := ahead.Next(0); err != nil || data == nil {
		t.Fatalf("drain: data=%v err=%v", data, err)
	}
	behind, err := OpenTail(dev, 0)
	if err != nil {
		t.Fatal(err)
	}

	begin := l.AppendCheckpointBegin()
	if _, err := l.AppendCheckpointEnd(Checkpoint{BeginLSN: begin, NextTxn: 5}, true); err != nil {
		t.Fatal(err)
	}
	if dead := l.TruncateBelow(begin); dead == 0 {
		t.Fatal("truncation reclaimed nothing; the test needs a truncated prefix")
	}
	appendTxns(t, dev, l, dataFile, 5, 1)

	if _, data, err := ahead.Next(0); err != nil || data == nil {
		t.Fatalf("caught-up reader after truncation: data=%v err=%v", data, err)
	}
	base, data, err := behind.Next(0)
	if err != nil || data == nil {
		t.Fatalf("buffered reader after truncation: data=%v err=%v", data, err)
	}
	if base != 0 {
		t.Fatalf("buffered reader lost its prefix: base=%d, want 0", base)
	}
}
