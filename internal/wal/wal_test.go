package wal

import (
	"bytes"
	"testing"

	"spatialjoin/internal/fault"
	"spatialjoin/internal/storage"
)

// newLogOnDisk creates a fresh disk with a log on it.
func newLogOnDisk(t *testing.T, group int) (*storage.Disk, *Log) {
	t.Helper()
	dev := storage.NewDisk(256)
	l, err := Create(dev, group)
	if err != nil {
		t.Fatal(err)
	}
	return dev, l
}

func TestCreateRejectsNonEmptyDevice(t *testing.T) {
	dev := storage.NewDisk(256)
	dev.CreateFile()
	if _, err := Create(dev, 1); err == nil {
		t.Fatal("Create on a non-empty device succeeded")
	}
}

func TestRecoverRejectsNonLog(t *testing.T) {
	dev := storage.NewDisk(256)
	f := dev.CreateFile()
	id, err := dev.AllocPage(f)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	copy(buf, []byte{12, 0, 0, 0}) // plausible "used" header, garbage payload
	if err := dev.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverWith(dev, Options{GroupCommit: 1}); err == nil {
		t.Fatal("Recover of a non-log device succeeded")
	}
}

// TestCommitRoundTrip appends two committed transactions and checks Recover
// returns their records and stats.
func TestCommitRoundTrip(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	img := make([]byte, 256)
	for i := range img {
		img[i] = byte(i)
	}
	dataFile := dev.CreateFile()
	pid, err := dev.AllocPage(dataFile)
	if err != nil {
		t.Fatal(err)
	}
	for txn := uint64(1); txn <= 2; txn++ {
		l.Begin(txn)
		l.AppendImage(txn, pid, img)
		if _, err := l.Commit(txn); err != nil {
			t.Fatalf("commit %d: %v", txn, err)
		}
	}
	if st := l.Stats(); st.Commits != 2 || st.Syncs < 2 {
		t.Errorf("stats after two fsync-every-commit txns: %+v", st)
	}

	res, err := RecoverWith(dev, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	catalog := res.Catalog
	rstats := res.Stats
	if rstats.TxnsCommitted != 2 || rstats.TxnsDiscarded != 0 {
		t.Errorf("recovery stats: %+v", rstats)
	}
	if rstats.RecordsReplayed != 2 || rstats.PagesRestored != 1 {
		t.Errorf("replay stats: %+v", rstats)
	}
	if rstats.TornTailBytes != 0 {
		t.Errorf("clean log reports %d torn tail bytes", rstats.TornTailBytes)
	}
	if len(catalog) != 0 {
		t.Errorf("unexpected catalog records: %v", catalog)
	}
	got, err := dev.ReadPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Error("replayed page does not match the logged image")
	}
	if rstats.NextTxn != 3 {
		t.Errorf("NextTxn = %d, want 3", rstats.NextTxn)
	}
}

// TestUncommittedTxnDiscarded checks a begun-but-never-committed
// transaction's images are not replayed.
func TestUncommittedTxnDiscarded(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	dataFile := dev.CreateFile()
	pid, err := dev.AllocPage(dataFile)
	if err != nil {
		t.Fatal(err)
	}
	img := bytes.Repeat([]byte{0xAB}, 256)
	//sjlint:ignore txnatomic deliberately left open: the test asserts recovery discards it
	l.Begin(7)
	l.AppendImage(7, pid, img)
	if err := l.Sync(); err != nil { // durable, but no commit record
		t.Fatal(err)
	}
	res, err := RecoverWith(dev, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	rstats := res.Stats
	if rstats.TxnsDiscarded != 1 || rstats.TxnsCommitted != 0 || rstats.RecordsReplayed != 0 {
		t.Errorf("recovery stats: %+v", rstats)
	}
	got, err := dev.ReadPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 256)) {
		t.Error("uncommitted image was replayed onto the device")
	}
}

// TestGroupCommitBuffers checks that with a group size of 4, commits stay
// buffered (not durable) until the group fills.
func TestGroupCommitBuffers(t *testing.T) {
	dev, l := newLogOnDisk(t, 4)
	for txn := uint64(1); txn <= 3; txn++ {
		l.Begin(txn)
		if _, err := l.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Syncs != 1 { // the Create header sync only
		t.Errorf("syncs before the group fills: %d, want 1", st.Syncs)
	}
	res, err := RecoverWith(dev, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	rstats := res.Stats
	if rstats.TxnsCommitted != 0 {
		t.Errorf("unsynced commits visible after crash: %+v", rstats)
	}

	dev2, l2 := newLogOnDisk(t, 4)
	for txn := uint64(1); txn <= 4; txn++ {
		l2.Begin(txn)
		if _, err := l2.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
	if st := l2.Stats(); st.Syncs != 2 {
		t.Errorf("syncs after the group fills: %d, want 2", st.Syncs)
	}
	res2, err := RecoverWith(dev2, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	rstats2 := res2.Stats
	if rstats2.TxnsCommitted != 4 {
		t.Errorf("full group not durable: %+v", rstats2)
	}
}

// TestTornTailPageDiscarded tears the final log page and checks recovery
// keeps everything before it and reports the loss.
func TestTornTailPageDiscarded(t *testing.T) {
	inner := storage.NewDisk(256)
	fd := fault.Wrap(inner, fault.Options{Seed: 1})
	l, err := Create(fd, 1)
	if err != nil {
		t.Fatal(err)
	}
	dataFile := fd.CreateFile()
	pid, err := fd.AllocPage(dataFile)
	if err != nil {
		t.Fatal(err)
	}
	img := bytes.Repeat([]byte{1}, 256)
	l.Begin(1)
	l.AppendImage(1, pid, img)
	if _, err := l.Commit(1); err != nil {
		t.Fatal(err)
	}
	l.Begin(2)
	l.AppendImage(2, pid, bytes.Repeat([]byte{2}, 256))
	if _, err := l.Commit(2); err != nil {
		t.Fatal(err)
	}
	// Tear every log page txn 2 occupies: all pages written after txn 1's
	// commit record landed.
	n := fd.NumPages(LogFileID)
	if n < 4 {
		t.Fatalf("log only has %d pages", n)
	}
	for p := n - 2; p < n; p++ {
		fd.TearPage(storage.PageID{File: LogFileID, Page: int32(p)})
	}
	res, err := RecoverWith(fd, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	rstats := res.Stats
	if rstats.TornPages == 0 {
		t.Error("torn log pages not counted")
	}
	if rstats.TxnsCommitted < 1 {
		t.Errorf("txn 1 lost: %+v", rstats)
	}
	got, err := storage.ReadPage(fd, pid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Error("device page does not hold txn 1's image after recovery")
	}
}

// TestResumeAfterRecovery checks the startLSN rewind rule: a log recovered
// past a discarded tail accepts new appends, and a second recovery sees
// both the old and the new transactions.
func TestResumeAfterRecovery(t *testing.T) {
	inner := storage.NewDisk(256)
	fd := fault.Wrap(inner, fault.Options{Seed: 1})
	l, err := Create(fd, 1)
	if err != nil {
		t.Fatal(err)
	}
	l.Begin(1)
	if _, err := l.Commit(1); err != nil {
		t.Fatal(err)
	}
	// A torn final page leaves garbage the next generation must supersede.
	//sjlint:ignore txnatomic deliberately left open: the torn tail swallows it
	l.Begin(2)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	n := fd.NumPages(LogFileID)
	fd.TearPage(storage.PageID{File: LogFileID, Page: int32(n - 1)})

	res, err := RecoverWith(fd, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	l2 := res.Log
	rstats := res.Stats
	if rstats.TxnsCommitted != 1 {
		t.Fatalf("first recovery: %+v", rstats)
	}
	l2.Begin(3)
	if _, err := l2.Commit(3); err != nil {
		t.Fatal(err)
	}

	res2, err := RecoverWith(fd, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	rstats2 := res2.Stats
	if rstats2.TxnsCommitted != 2 {
		t.Errorf("second recovery lost a generation: %+v", rstats2)
	}
	if rstats2.NextTxn != 4 {
		t.Errorf("NextTxn = %d, want 4", rstats2.NextTxn)
	}
}

// TestCatalogRoundTrip checks catalog payload encode/decode and that
// Recover returns committed catalog records in order.
func TestCatalogRoundTrip(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	nc := NewCollection{Name: "roads", HeapFile: 3}
	nj := NewJoinIndex{R: "roads", S: "cities", Operator: "overlaps", PairFile: 9}
	//sjlint:ignore txnatomic t.Fatal exits abandon the test txn; only the committed path matters
	l.Begin(1)
	if _, err := l.AppendCatalog(1, RecNewCollection, EncodeNewCollection(nc)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendCatalog(1, RecNewJoinIndex, EncodeNewJoinIndex(nj)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit(1); err != nil {
		t.Fatal(err)
	}
	res, err := RecoverWith(dev, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	catalog := res.Catalog
	if len(catalog) != 2 {
		t.Fatalf("recovered %d catalog records, want 2", len(catalog))
	}
	gotNC, err := DecodeNewCollection(catalog[0].Data)
	if err != nil || gotNC != nc {
		t.Errorf("collection record: %+v, %v", gotNC, err)
	}
	gotNJ, err := DecodeNewJoinIndex(catalog[1].Data)
	if err != nil || gotNJ != nj {
		t.Errorf("join-index record: %+v, %v", gotNJ, err)
	}
	if _, err := l.AppendCatalog(1, RecBegin, nil); err == nil {
		t.Error("AppendCatalog accepted a non-catalog record type")
	}
}

// TestWALWritesCountInDiskStats checks the accounting contract: every log
// page write appears in the device's physical write counter.
func TestWALWritesCountInDiskStats(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	before := dev.Stats().Writes
	l.Begin(1)
	l.AppendImage(1, storage.PageID{File: 1, Page: 0}, make([]byte, 256))
	if _, err := l.Commit(1); err != nil {
		t.Fatal(err)
	}
	delta := dev.Stats().Writes - before
	pw := l.Stats().PageWrites
	if delta == 0 {
		t.Fatal("log sync caused no device writes")
	}
	// PageWrites includes the header page written at Create, before the
	// baseline snapshot.
	if pw-1 != delta {
		t.Errorf("device writes %d, log PageWrites since create %d", delta, pw-1)
	}
}
