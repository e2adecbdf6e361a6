package wal

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"spatialjoin/internal/fault"
	"spatialjoin/internal/storage"
)

// sampleCheckpoint is a checkpoint with every table populated: active
// transactions, a dirty-page table, and a manifest holding collections and
// a join index.
func sampleCheckpoint() Checkpoint {
	return Checkpoint{
		BeginLSN: 12345,
		NextTxn:  42,
		Active: []ActiveTxn{
			{Txn: 7, BeginLSN: 11111},
			{Txn: 9, BeginLSN: 12000},
		},
		DPT: []DirtyPage{
			{Page: storage.PageID{File: 2, Page: 5}, RecLSN: 9000},
			{Page: storage.PageID{File: 3, Page: 0}, RecLSN: 10500},
		},
		Manifest: []Record{
			{Type: RecNewCollection, Data: EncodeNewCollection(NewCollection{Name: "roads", HeapFile: 1})},
			{Type: RecNewCollection, Data: EncodeNewCollection(NewCollection{Name: "cities", HeapFile: 3})},
			{Type: RecNewJoinIndex, Data: EncodeNewJoinIndex(NewJoinIndex{R: "roads", S: "cities", Operator: "overlaps", PairFile: 4})},
		},
	}
}

// TestCheckpointCodecRoundTrip checks the end-record payload carries every
// table through encode/decode unchanged, and that a truncated payload, a
// trailing byte and a manifest entry that is no registration are errors.
func TestCheckpointCodecRoundTrip(t *testing.T) {
	cp := sampleCheckpoint()
	enc := EncodeCheckpoint(cp)
	got, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("round trip mismatch:\n got  %+v\n want %+v", got, cp)
	}
	if _, err := DecodeCheckpoint(enc[:10]); err == nil {
		t.Error("truncated payload decoded without error")
	}
	if _, err := DecodeCheckpoint(append(bytes.Clone(enc), 0)); err == nil {
		t.Error("payload with a trailing byte decoded without error")
	}
	bad := cp
	bad.Manifest = []Record{{Type: RecNewCollection, Data: EncodeNewJoinIndex(NewJoinIndex{R: "a", S: "b", Operator: "c"})}}
	if _, err := DecodeCheckpoint(EncodeCheckpoint(bad)); err == nil {
		t.Error("manifest entry whose payload is not its registration decoded without error")
	}
	bad.Manifest = []Record{{Type: RecCommit}}
	if _, err := DecodeCheckpoint(EncodeCheckpoint(bad)); err == nil {
		t.Error("manifest entry of a non-catalog type decoded without error")
	}
}

// TestCheckpointCatalogOverrunAllocatesNothing checks a manifest entry whose
// length prefix claims far more bytes than the payload holds is rejected
// before anything of that size is allocated.
func TestCheckpointCatalogOverrunAllocatesNothing(t *testing.T) {
	cp := sampleCheckpoint()
	cp.Manifest = nil
	enc := EncodeCheckpoint(cp)
	enc = putCount(enc[:len(enc)-4], 1) // the manifest count, 0 → 1
	enc = append(enc, byte(RecNewCollection))
	enc = putCount(enc, 1<<30)
	enc = append(enc, "short"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeCheckpoint(enc)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("catalog entry running 1 GiB past the payload decoded without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting the overrun allocated %d bytes", grew)
	}
}

// FuzzDecodeCheckpoint feeds arbitrary bytes to the checkpoint payload
// decoder: it must never panic, and any payload it accepts must re-encode
// to exactly the same bytes.
func FuzzDecodeCheckpoint(f *testing.F) {
	cp := sampleCheckpoint()
	f.Add(EncodeCheckpoint(cp))
	f.Add(EncodeCheckpoint(Checkpoint{BeginLSN: 1, NextTxn: 1}))
	cp.Active, cp.DPT = nil, nil
	f.Add(EncodeCheckpoint(cp))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if got := EncodeCheckpoint(cp); !bytes.Equal(got, data) {
			t.Fatalf("accepted payload re-encodes differently:\n in  %x\n out %x", data, got)
		}
	})
}

// TestCheckpointFloors checks RedoFloor and replayStart honor the DPT and
// active-transaction minima.
func TestCheckpointFloors(t *testing.T) {
	cp := Checkpoint{BeginLSN: 1000}
	if cp.RedoFloor() != 1000 || cp.replayStart() != 1000 {
		t.Fatalf("empty-table floors = %d/%d, want 1000/1000", cp.RedoFloor(), cp.replayStart())
	}
	cp.DPT = []DirtyPage{{Page: storage.PageID{File: 1, Page: 1}, RecLSN: 400}}
	cp.Active = []ActiveTxn{{Txn: 3, BeginLSN: 700}}
	if cp.RedoFloor() != 400 {
		t.Errorf("RedoFloor = %d, want 400 (DPT floor)", cp.RedoFloor())
	}
	if cp.replayStart() != 700 {
		t.Errorf("replayStart = %d, want 700 (oldest active begin, DPT does not lower it)", cp.replayStart())
	}
}

// commitImage logs one committed transaction writing img to pid.
func commitImage(t *testing.T, l *Log, txn uint64, pid storage.PageID, img []byte) LSN {
	t.Helper()
	l.Begin(txn)
	l.AppendImage(txn, pid, img)
	lsn, err := l.Commit(txn)
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

// TestCheckpointBoundsRedo builds a log with pre-checkpoint transactions
// already on the device, checkpoints with an empty DPT, and checks recovery
// skips everything below the begin marker — and still recovers the device
// to identical bytes.
func TestCheckpointBoundsRedo(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	dataFile := dev.CreateFile()
	pid, err := dev.AllocPage(dataFile)
	if err != nil {
		t.Fatal(err)
	}
	imgA := bytes.Repeat([]byte{0xA1}, 256)
	imgB := bytes.Repeat([]byte{0xB2}, 256)
	commitImage(t, l, 1, pid, imgA)
	// The "flush": the committed content reaches the device before the
	// checkpoint cuts its tables, so the DPT is empty.
	if err := dev.WritePage(pid, imgA); err != nil {
		t.Fatal(err)
	}
	lb := l.AppendCheckpointBegin()
	if _, err := l.AppendCheckpointEnd(Checkpoint{BeginLSN: lb, NextTxn: 2}, false); err != nil {
		t.Fatal(err)
	}
	commitImage(t, l, 2, pid, imgB) // post-checkpoint: must replay

	res, err := RecoverWith(dev, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoint == nil || res.Checkpoint.BeginLSN != lb {
		t.Fatalf("recovery found checkpoint %+v, want begin %d", res.Checkpoint, lb)
	}
	if res.Stats.RecordsSkipped != 1 {
		t.Errorf("RecordsSkipped = %d, want 1 (the pre-checkpoint image)", res.Stats.RecordsSkipped)
	}
	if res.Stats.RecordsReplayed != 1 {
		t.Errorf("RecordsReplayed = %d, want 1 (the post-checkpoint image)", res.Stats.RecordsReplayed)
	}
	got, err := dev.ReadPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, imgB) {
		t.Error("device page does not hold the newest committed image after bounded recovery")
	}

	// Ignoring the checkpoint must replay everything and agree on state.
	res0, err := RecoverWith(dev, Options{GroupCommit: 1, IgnoreCheckpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	if res0.Checkpoint != nil || res0.Stats.RecordsSkipped != 0 || res0.Stats.RecordsReplayed != 2 {
		t.Errorf("full recovery stats: %+v", res0.Stats)
	}
}

// TestCheckpointDPTForcesReplay checks an image below the begin marker is
// still replayed when the DPT says its page never reached the device.
func TestCheckpointDPTForcesReplay(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	dataFile := dev.CreateFile()
	pid, err := dev.AllocPage(dataFile)
	if err != nil {
		t.Fatal(err)
	}
	img := bytes.Repeat([]byte{0xC3}, 256)
	begin := l.Begin(1)
	l.AppendImage(1, pid, img)
	if _, err := l.Commit(1); err != nil {
		t.Fatal(err)
	}
	// No device write: the page is still dirty at checkpoint time, so the
	// DPT carries it with the transaction's begin LSN as its redo floor.
	lb := l.AppendCheckpointBegin()
	cp := Checkpoint{
		BeginLSN: lb,
		NextTxn:  2,
		DPT:      []DirtyPage{{Page: pid, RecLSN: begin}},
	}
	if _, err := l.AppendCheckpointEnd(cp, false); err != nil {
		t.Fatal(err)
	}
	res, err := RecoverWith(dev, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RecordsReplayed != 1 || res.Stats.RecordsSkipped != 0 {
		t.Fatalf("stats: %+v", res.Stats)
	}
	got, err := dev.ReadPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Error("dirty-page-table image was not replayed")
	}
}

// TestActiveTxnStraddlesCheckpoint checks a transaction whose images land
// below the begin marker but whose commit lands above it is fully replayed:
// the active-transaction table lowers the replay start.
func TestActiveTxnStraddlesCheckpoint(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	dataFile := dev.CreateFile()
	pid, err := dev.AllocPage(dataFile)
	if err != nil {
		t.Fatal(err)
	}
	img := bytes.Repeat([]byte{0xD4}, 256)
	//sjlint:ignore txnatomic t.Fatal exits abandon the test txn; the committed path closes it
	begin := l.Begin(5)
	l.AppendImage(5, pid, img)
	lb := l.AppendCheckpointBegin()
	cp := Checkpoint{
		BeginLSN: lb,
		NextTxn:  6,
		Active:   []ActiveTxn{{Txn: 5, BeginLSN: begin}},
	}
	if _, err := l.AppendCheckpointEnd(cp, false); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit(5); err != nil {
		t.Fatal(err)
	}
	res, err := RecoverWith(dev, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RecordsReplayed != 1 || res.Stats.RecordsSkipped != 0 {
		t.Fatalf("stats: %+v (straddling txn's image must not be skipped)", res.Stats)
	}
	got, err := dev.ReadPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Error("straddling transaction's image was not replayed")
	}
}

// TestTruncateBelowReclaimsAndResyncs checks a truncating checkpoint costs
// no device I/O beyond its own end-record sync: the truncation is the stamp
// on that sync's final page, reclaiming counts only pages wholly below the
// floor without touching the device, recovery re-synchronizes at the head
// page's record boundary, and post-truncation state matches.
func TestTruncateBelowReclaimsAndResyncs(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	dataFile := dev.CreateFile()
	pid, err := dev.AllocPage(dataFile)
	if err != nil {
		t.Fatal(err)
	}
	// Enough committed traffic to span several 256-byte log pages.
	var img []byte
	for i := 0; i < 8; i++ {
		img = bytes.Repeat([]byte{byte(0x10 + i)}, 256)
		commitImage(t, l, uint64(i+1), pid, img)
	}
	if err := dev.WritePage(pid, img); err != nil {
		t.Fatal(err)
	}
	lb := l.AppendCheckpointBegin()
	before, logBefore := dev.Stats(), l.Stats()
	if _, err := l.AppendCheckpointEnd(Checkpoint{BeginLSN: lb, NextTxn: 9}, true); err != nil {
		t.Fatal(err)
	}
	synced := l.Stats().PageWrites - logBefore.PageWrites
	if mid := dev.Stats(); mid.Reads != before.Reads || mid.Writes != before.Writes+synced {
		t.Errorf("truncating checkpoint end moved the device by %d reads / %d writes, want 0 / the %d pages of its sync",
			mid.Reads-before.Reads, mid.Writes-before.Writes, synced)
	}
	if got := l.ScanFloor(); got != lb {
		t.Fatalf("ScanFloor = %d after the checkpoint, want its redo floor %d", got, lb)
	}
	before = dev.Stats()
	n := l.TruncateBelow(lb)
	if n == 0 {
		t.Fatal("truncation reclaimed no pages despite several dead log pages")
	}
	if got := l.Stats().TruncatedPages; got != int64(n) {
		t.Errorf("TruncatedPages stat = %d, want %d", got, n)
	}
	if after := dev.Stats(); after != before {
		t.Errorf("device I/O during truncation = %d reads / %d writes, want 0 / 0",
			after.Reads-before.Reads, after.Writes-before.Writes)
	}

	res, err := RecoverWith(dev, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BaseLSN == 0 {
		t.Error("BaseLSN = 0 after truncation, want the resynchronized boundary")
	}
	if int(res.Stats.HeadPage) != n {
		t.Errorf("recovery's head page = %d, want %d (the pages truncation counted dead)", res.Stats.HeadPage, n)
	}
	if live := int64(dev.NumPages(LogFileID) - n); res.Stats.LogPagesRead != live {
		t.Errorf("recovery read %d log pages, want the %d live ones", res.Stats.LogPagesRead, live)
	}
	if res.Checkpoint == nil || res.Checkpoint.BeginLSN != lb {
		t.Fatalf("checkpoint lost by truncation: %+v", res.Checkpoint)
	}
	got, err := dev.ReadPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Error("device state wrong after truncated-log recovery")
	}
	// A second truncation finds nothing left to count.
	if again := l.TruncateBelow(lb); again != 0 {
		t.Errorf("second truncation at the same floor counted %d pages", again)
	}

	// The recovered log inherits the floor, still accepts new transactions,
	// and recovers them from the same head.
	l2 := res.Log
	if got := l2.ScanFloor(); got != lb {
		t.Errorf("recovered log's ScanFloor = %d, want the inherited %d", got, lb)
	}
	img2 := bytes.Repeat([]byte{0xEE}, 256)
	commitImage(t, l2, 20, pid, img2)
	res2, err := RecoverWith(dev, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	got2, err := dev.ReadPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, img2) {
		t.Errorf("post-truncation append lost: %+v", res2.Stats)
	}
	if res2.Stats.HeadPage != res.Stats.HeadPage || res2.Stats.BaseLSN != res.Stats.BaseLSN {
		t.Errorf("recovery after the resumed appends starts at page %d / LSN %d, want %d / %d",
			res2.Stats.HeadPage, res2.Stats.BaseLSN, res.Stats.HeadPage, res.Stats.BaseLSN)
	}
}

// TestAbortRecordClosesTxn checks an aborted transaction is classified as
// aborted — not discarded — and its images are never replayed.
func TestAbortRecordClosesTxn(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	dataFile := dev.CreateFile()
	pid, err := dev.AllocPage(dataFile)
	if err != nil {
		t.Fatal(err)
	}
	l.Begin(3)
	l.AppendImage(3, pid, bytes.Repeat([]byte{0xFF}, 256))
	l.Abort(3)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Aborts; got != 1 {
		t.Errorf("Aborts stat = %d, want 1", got)
	}
	res, err := RecoverWith(dev, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	rstats := res.Stats
	if rstats.TxnsAborted != 1 || rstats.TxnsDiscarded != 0 || rstats.RecordsReplayed != 0 {
		t.Errorf("recovery stats: %+v", rstats)
	}
}

// TestLogCloseForcesDurable checks Close drains the group-commit buffer: a
// commit batched under a large group size survives a clean shutdown.
func TestLogCloseForcesDurable(t *testing.T) {
	dev, l := newLogOnDisk(t, 64) // batch far more commits than we make
	dataFile := dev.CreateFile()
	pid, err := dev.AllocPage(dataFile)
	if err != nil {
		t.Fatal(err)
	}
	img := bytes.Repeat([]byte{0x77}, 256)
	l.Begin(1)
	l.AppendImage(1, pid, img)
	if _, err := l.Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := RecoverWith(dev, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	rstats := res.Stats
	if rstats.TxnsCommitted != 1 || rstats.RecordsReplayed != 1 {
		t.Errorf("commit lost across clean Close: %+v", rstats)
	}
}

// fatCheckpoint builds the log TestStampProvesCheckpoint crashes: committed
// traffic, a small truncating checkpoint, more traffic, and the begin marker
// of a second checkpoint whose manifest is fat enough for its end record to
// span several 256-byte log pages. It returns the second checkpoint, not yet
// ended, and the image the data page must hold after any recovery.
func fatCheckpoint(t *testing.T) (*fault.Disk, *Log, storage.PageID, []byte, Checkpoint) {
	t.Helper()
	fd := fault.Wrap(storage.NewDisk(256), fault.Options{})
	l, err := Create(fd, 1)
	if err != nil {
		t.Fatal(err)
	}
	pid, err := fd.AllocPage(fd.CreateFile())
	if err != nil {
		t.Fatal(err)
	}
	var img []byte
	traffic := func(firstTxn uint64) {
		for i := uint64(0); i < 4; i++ {
			img = bytes.Repeat([]byte{byte(firstTxn + i)}, 256)
			commitImage(t, l, firstTxn+i, pid, img)
		}
		if err := fd.WritePage(pid, img); err != nil {
			t.Fatal(err)
		}
	}
	traffic(1)
	lb := l.AppendCheckpointBegin()
	if _, err := l.AppendCheckpointEnd(Checkpoint{BeginLSN: lb, NextTxn: 5}, true); err != nil {
		t.Fatal(err)
	}
	traffic(5)
	cp := Checkpoint{BeginLSN: l.AppendCheckpointBegin(), NextTxn: 9}
	for i := 0; i < 40; i++ {
		cp.Manifest = append(cp.Manifest, Record{Type: RecNewCollection, Data: EncodeNewCollection(NewCollection{
			Name: fmt.Sprintf("collection-%02d", i), HeapFile: storage.FileID(i),
		})})
	}
	return fd, l, pid, img, cp
}

// TestStampProvesCheckpoint is invariant I4 on the device bytes: a
// truncating checkpoint whose end record spans several log pages is crashed
// after each page of its sync, after the sync, and with each page torn; in
// every case no valid log page carries a floor above the redo floor of the
// last complete end record (found by a scan from page 0, which trusts no
// stamp), bounded recovery finds that same checkpoint, and the recovered
// log carries on under its floor.
func TestStampProvesCheckpoint(t *testing.T) {
	_, dry, _, _, cp := fatCheckpoint(t)
	before := dry.Stats().PageWrites
	if _, err := dry.AppendCheckpointEnd(cp, true); err != nil {
		t.Fatal(err)
	}
	span := int(dry.Stats().PageWrites - before)
	if span < 3 {
		t.Fatalf("end record sync wrote %d pages; the sweep needs at least 3", span)
	}
	defer fault.DisarmCrashPoints()
	type crashCase struct {
		label string
		arm   func(fd *fault.Disk)
	}
	cases := []crashCase{
		{"no crash", func(*fault.Disk) {}},
		{"wal.synced", func(*fault.Disk) { fault.ArmCrashPoint("wal.synced", 1) }},
	}
	for k := 1; k <= span; k++ {
		k := k
		cases = append(cases,
			crashCase{fmt.Sprintf("wal.sync.page#%d", k), func(*fault.Disk) { fault.ArmCrashPoint("wal.sync.page", k) }},
			crashCase{fmt.Sprintf("page %d of %d torn", k, span), func(fd *fault.Disk) { fd.SetCrashAfterWrites(int64(k)) }})
	}
	for _, c := range cases {
		fd, l, pid, img, cp := fatCheckpoint(t)
		c.arm(fd)
		func() {
			defer func() {
				if v := recover(); v != nil {
					if _, ok := fault.AsCrash(v); !ok {
						panic(v)
					}
				}
			}()
			if _, err := l.AppendCheckpointEnd(cp, true); err != nil {
				t.Fatalf("%s: %v", c.label, err)
			}
		}()
		fault.DisarmCrashPoints()
		fd.Reboot()

		// The last complete end record, by a scan that trusts no stamp.
		full := logHead{}
		sc, err := scanStream(fd, &full)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		records, _ := parseStream(sc.base, sc.stream)
		var proven Checkpoint
		for _, r := range records {
			if r.Type == RecCheckpointEnd {
				if proven, err = DecodeCheckpoint(r.Data); err != nil {
					t.Fatalf("%s: %v", c.label, err)
				}
			}
		}
		for p := 0; p < fd.NumPages(LogFileID); p++ {
			buf, err := readLogPage(fd, p)
			if hd := parseHeader(buf); err == nil && hd.live(256) && hd.floor > proven.RedoFloor() {
				t.Errorf("%s: log page %d is stamped %d, above the last complete checkpoint's redo floor %d",
					c.label, p, hd.floor, proven.RedoFloor())
			}
		}

		res, err := RecoverWith(fd, Options{GroupCommit: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if res.Checkpoint == nil || res.Checkpoint.BeginLSN != proven.BeginLSN {
			t.Fatalf("%s: bounded recovery found checkpoint %+v, a scan from page 0 finds the one begun at %d",
				c.label, res.Checkpoint, proven.BeginLSN)
		}
		if got := res.Log.ScanFloor(); got > proven.RedoFloor() {
			t.Errorf("%s: recovered log's floor %d is above the checkpoint's redo floor %d", c.label, got, proven.RedoFloor())
		}
		if got, err := storage.ReadPage(fd, pid); err != nil || !bytes.Equal(got, img) {
			t.Errorf("%s: data page wrong after recovery (%v)", c.label, err)
		}
	}
}

// TestRetainClipsFloor checks the Retain pin still bounds truncation now
// that truncation is a stamp: a checkpoint under a pin raises the floor to
// the pin, a reader at the pin opens, and once the pin clears the next
// checkpoint takes the floor to its own redo floor and strands that reader.
func TestRetainClipsFloor(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	dataFile := dev.CreateFile()
	appendTxns(t, dev, l, dataFile, 1, 3)
	pin := l.DurableLSN()
	l.Retain(pin)
	appendTxns(t, dev, l, dataFile, 4, 3)
	checkpoint := func(nextTxn uint64) LSN {
		lb := l.AppendCheckpointBegin()
		if _, err := l.AppendCheckpointEnd(Checkpoint{BeginLSN: lb, NextTxn: nextTxn}, true); err != nil {
			t.Fatal(err)
		}
		return lb
	}
	lb := checkpoint(7)
	if got := l.ScanFloor(); got != pin || pin >= lb {
		t.Fatalf("ScanFloor = %d under a pin at %d (checkpoint redo floor %d), want the pin", got, pin, lb)
	}
	if l.TruncateBelow(lb) == 0 {
		t.Fatal("nothing reclaimed below the pin; the test needs dead pages")
	}
	if _, err := OpenTail(dev, pin); err != nil {
		t.Fatalf("OpenTail at the pin: %v", err)
	}
	l.Retain(0)
	if lb = checkpoint(7); l.ScanFloor() != lb {
		t.Fatalf("ScanFloor = %d after the pin cleared, want the checkpoint's redo floor %d", l.ScanFloor(), lb)
	}
	if _, err := OpenTail(dev, pin); !errors.Is(err, ErrTruncatedAway) {
		t.Fatalf("OpenTail at the old pin after the floor passed it: err=%v, want ErrTruncatedAway", err)
	}
}

// flakyReads fails the first left reads of one page with a transient fault,
// the way a fault schedule would, and counts the reads of that page.
type flakyReads struct {
	storage.Device
	id          storage.PageID
	left, reads int
}

func (f *flakyReads) ReadPageInto(id storage.PageID, buf []byte) error {
	if id == f.id {
		f.reads++
		if f.left > 0 {
			f.left--
			return &fault.Error{Op: "read", Page: id, Kind: fault.Transient}
		}
	}
	return f.Device.ReadPageInto(id, buf)
}

// TestRecoveryRetriesTransientLogReads checks recovery's raw reads run under
// a retry policy: with the last log page — the one whose stamp is the newest
// floor — failing transiently, the head search retries it rather than
// falling back to the older stamp below, and with a data page redo builds on
// failing the same way, redo retries too. Both recoveries match the healthy
// one.
func TestRecoveryRetriesTransientLogReads(t *testing.T) {
	fd, l, pid, _, cp := fatCheckpoint(t)
	if _, err := l.AppendCheckpointEnd(cp, true); err != nil {
		t.Fatal(err)
	}
	// One append onto the page as the device holds it, so redo reads it.
	rec := []byte("tail")
	page, err := storage.NewPage(256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := page.Insert(rec); err != nil {
		t.Fatal(err)
	}
	if err := fd.WritePage(pid, page.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := page.Insert(rec); err != nil {
		t.Fatal(err)
	}
	//sjlint:ignore txnatomic t.Fatal exits abandon the test txn; the committed path closes it
	l.Begin(20)
	if err := l.AppendPageWrite(20, storage.PageWrite{ID: pid, Page: page, First: 1, N: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit(20); err != nil {
		t.Fatal(err)
	}

	healthy, err := RecoverWith(cloneDisk(t, fd), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Stats.HeadPage == 0 || healthy.Stats.RecordsReplayed != 1 {
		t.Fatalf("healthy recovery: %+v; the test needs a stamped head and one append to redo", healthy.Stats)
	}
	last := storage.PageID{File: LogFileID, Page: int32(fd.NumPages(LogFileID) - 1)}
	for _, id := range []storage.PageID{last, pid} {
		dev := &flakyReads{Device: cloneDisk(t, fd), id: id, left: 2}
		res, err := RecoverWith(dev, Options{})
		if err != nil {
			t.Fatalf("recovery with %v failing transiently: %v", id, err)
		}
		if dev.reads < 3 {
			t.Fatalf("recovery read %v %d times; the test needs it to hit both faults", id, dev.reads)
		}
		if res.Stats.HeadPage != healthy.Stats.HeadPage || res.Stats.BaseLSN != healthy.Stats.BaseLSN ||
			res.Stats.RecordsReplayed != healthy.Stats.RecordsReplayed {
			t.Errorf("recovery with %v failing transiently: head page %d, base %d, %d replayed; healthy: %d, %d, %d",
				id, res.Stats.HeadPage, res.Stats.BaseLSN, res.Stats.RecordsReplayed,
				healthy.Stats.HeadPage, healthy.Stats.BaseLSN, healthy.Stats.RecordsReplayed)
		}
	}
}
