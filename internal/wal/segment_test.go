package wal

import (
	"errors"
	"math/rand"
	"testing"

	"spatialjoin/internal/storage"
)

// TestNoDataPageParsesAsLog fills slotted pages — the only format data
// files hold — with random records and with records crafted from real log
// pages, segment headers and the magic, and checks none of them reads as a
// live log page or opens a segment. A device of such pages holds no log.
func TestNoDataPageParsesAsLog(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	dataFile := dev.CreateFile()
	appendTxns(t, dev, l, dataFile, 1, 40)
	var crafted [][]byte
	for _, s := range l.Segments() {
		for p := 0; p < dev.NumPages(s.File); p++ {
			buf, err := dev.ReadPage(storage.PageID{File: s.File, Page: int32(p)})
			if err != nil {
				t.Fatal(err)
			}
			// A log page whole, and shifted so its header lands where
			// the slotted page's records begin.
			crafted = append(crafted, buf, buf[4:], buf[:pageHeader+segHeader])
		}
	}
	crafted = append(crafted, magic)

	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{64, 256, 512, 2000, 8192} {
		data := storage.NewDisk(size)
		f := data.CreateFile()
		for trial := 0; trial < 200; trial++ {
			page, err := storage.NewPage(size)
			if err != nil {
				t.Fatal(err)
			}
			for {
				var rec []byte
				if rng.Intn(2) == 0 {
					rec = crafted[rng.Intn(len(crafted))]
				} else {
					rec = make([]byte, rng.Intn(size/4+1))
					rng.Read(rec)
				}
				if len(rec) > page.FreeSpace() {
					rec = rec[:max(page.FreeSpace(), 0)]
				}
				if _, err := page.Insert(rec); err != nil || page.FreeSpace() <= 0 {
					break
				}
			}
			buf := page.Bytes()
			if hd := parseHeader(buf); hd.live(size) {
				t.Fatalf("size %d, trial %d: a slotted page reads as a live log page (used %d)", size, trial, hd.used)
			}
			if _, ok := parseSegHeader(f, buf); ok {
				t.Fatalf("size %d, trial %d: a slotted page opens a log segment", size, trial)
			}
			id, err := data.AllocPage(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := data.WritePage(id, buf); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := RecoverWith(data, Options{}); !errors.Is(err, ErrNotALog) {
			t.Fatalf("size %d: recovery over data pages only: err=%v, want ErrNotALog", size, err)
		}
	}
}

// TestTailCrossesSegments tails a log that rolls through several segments.
// A reader polled after every commit crosses each boundary and delivers the
// stream the log holds. Under a Retain pin at the reader's position a
// truncating checkpoint drops only segments wholly below the pin, and the
// reader carries on; once the pin is released, a checkpoint drops the
// segments the reader has not read yet, and the reader reports
// ErrTruncatedAway instead of skipping them.
func TestTailCrossesSegments(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	dataFile := dev.CreateFile()
	r, err := OpenTail(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	drain := func() error {
		for {
			_, data, err := r.Next(0)
			if err != nil || data == nil {
				return err
			}
			got = append(got, data...)
		}
	}
	txn := uint64(1)
	commit := func(n int) {
		appendTxns(t, dev, l, dataFile, txn, n)
		txn += uint64(n)
	}
	for i := 0; i < 40; i++ {
		commit(1)
		if err := drain(); err != nil {
			t.Fatalf("after commit %d: %v", i, err)
		}
	}
	if n := len(l.Segments()); n < 3 {
		t.Fatalf("40 commits filled %d segments; the test needs at least 3", n)
	}
	records, _ := parseStream(0, got)
	_, want := streamOf(t, dev)
	assertSameRecords(t, want, records)

	checkpoint := func() {
		t.Helper()
		begin := l.AppendCheckpointBegin()
		if _, err := l.AppendCheckpointEnd(Checkpoint{BeginLSN: begin, NextTxn: txn}, true); err != nil {
			t.Fatal(err)
		}
		l.TruncateBelow(begin)
	}

	pin := r.Pos()
	l.Retain(pin)
	commit(30)
	before := l.Segments()
	pages := append([]pageEnd(nil), l.live...)
	checkpoint()
	if len(l.Segments()) >= len(before) {
		t.Fatal("the pinned checkpoint dropped nothing; the test needs segments below the pin")
	}
	for _, pe := range pages {
		if pe.end > pin && dev.NumPages(pe.file) == 0 {
			t.Fatalf("segment %d, holding stream bytes up to %d above the pin %d, was dropped", pe.file, pe.end, pin)
		}
	}
	if err := drain(); err != nil {
		t.Fatalf("pinned reader after the checkpoint: %v", err)
	}
	if end := LSN(len(got)); end != l.DurableLSN() {
		t.Fatalf("pinned reader stopped at %d, the log is durable to %d", end, l.DurableLSN())
	}

	l.Retain(0)
	commit(30)
	checkpoint()
	if err := drain(); !errors.Is(err, ErrTruncatedAway) {
		t.Fatalf("reader whose unread segments were dropped: err=%v, want ErrTruncatedAway", err)
	}
}

// TestTailReadsEachFileAboveItsSegmentOnce parks a reader on a full newest
// segment below data files. Every poll looks above the segment for its
// successor, but a data file's page 0 is read by the first poll only: the
// polls after it read nothing, however many files and polls there are. An
// empty file is never read, and neither is a file whose page 0 is allocated
// but unwritten — the appender's window when it opens a segment — which
// stays undecided: once its page 0 lands, the reader crosses into it.
func TestTailReadsEachFileAboveItsSegmentOnce(t *testing.T) {
	const dataFiles, polls = 8, 25
	// twin logs the same transactions on a device without data files; its
	// second segment's first page is the one dev's log would write next.
	dev, l := newLogOnDisk(t, 1)
	twin, lt := newLogOnDisk(t, 1)
	commit := func(l *Log, txn uint64) {
		t.Helper()
		l.Begin(txn)
		if _, err := l.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
	// Empty transactions: every commit syncs one page.
	txn := uint64(1)
	for ; dev.NumPages(LogFileID) < segPages; txn++ {
		commit(l, txn)
		commit(lt, txn)
	}
	if n := len(l.Segments()); n != 1 || dev.NumPages(LogFileID) != segPages {
		t.Fatalf("%d segments, %d pages in the first; the test needs one full segment", n, dev.NumPages(LogFileID))
	}
	for i := 0; i < dataFiles; i++ {
		page, err := storage.NewPage(dev.PageSize())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := page.Insert([]byte{byte(i), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		id, err := dev.AllocPage(dev.CreateFile())
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.WritePage(id, page.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	dev.CreateFile() // empty

	r, err := OpenTail(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	poll := func() []byte {
		t.Helper()
		_, data, err := r.Next(0)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for poll() != nil {
	}
	parked := func(what string) {
		t.Helper()
		before := dev.Stats().Reads
		for i := 0; i < polls; i++ {
			if data := poll(); data != nil {
				t.Fatalf("%s, poll %d: %d bytes from a log that did not grow", what, i, len(data))
			}
		}
		if reads := dev.Stats().Reads - before; reads != 0 {
			t.Fatalf("%s: %d polls below %d data files read %d pages, want 0", what, polls, dataFiles, reads)
		}
	}
	parked("full segment")

	commit(lt, txn)
	if segs := lt.Segments(); len(segs) != 2 || twin.NumPages(segs[1].File) != 1 {
		t.Fatal("the twin's commit after a full segment did not open a one-page segment")
	}
	next, err := twin.ReadPage(storage.PageID{File: lt.Segments()[1].File})
	if err != nil {
		t.Fatal(err)
	}
	id, err := dev.AllocPage(dev.CreateFile())
	if err != nil {
		t.Fatal(err)
	}
	parked("segment page 0 allocated")
	if err := dev.WritePage(id, next); err != nil {
		t.Fatal(err)
	}
	for poll() != nil {
	}
	if r.Pos() != lt.DurableLSN() {
		t.Fatalf("reader at %d once the segment's page 0 landed, the log is durable to %d", r.Pos(), lt.DurableLSN())
	}
}
