package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"spatialjoin/internal/fault"
	"spatialjoin/internal/storage"
)

// redoWorld is a log, a pool under it and a few heap files: the write path
// the transaction layer drives, small enough to run thousands of times.
type redoWorld struct {
	t     *testing.T
	dev   *storage.Disk
	log   *Log
	pool  *storage.BufferPool
	files []*storage.HeapFile
	txn   uint64
	// truncate makes the world's checkpoints truncating: each raises the
	// scan floor, so recovery starts at the live head instead of page 0.
	truncate bool
}

func newRedoWorld(t *testing.T, pageSize, frames, files int) *redoWorld {
	t.Helper()
	dev := storage.NewDisk(pageSize)
	l, err := Create(dev, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := storage.NewBufferPool(dev, frames)
	if err != nil {
		t.Fatal(err)
	}
	pool.SetWAL(l)
	w := &redoWorld{t: t, dev: dev, log: l, pool: pool}
	for i := 0; i < files; i++ {
		hf, err := storage.NewHeapFile(pool, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		w.files = append(w.files, hf)
	}
	return w
}

// register logs each file as a collection, one committed catalog
// transaction apiece, so the world's checkpoints have a manifest to carry.
func (w *redoWorld) register() {
	w.t.Helper()
	for i, hf := range w.files {
		w.txn++
		w.log.Begin(w.txn)
		payload := EncodeNewCollection(NewCollection{Name: fmt.Sprintf("f%d", i), HeapFile: hf.File()})
		if _, err := w.log.AppendCatalog(w.txn, RecNewCollection, payload); err != nil {
			w.log.Abort(w.txn)
			w.t.Fatal(err)
		}
		if _, err := w.log.Commit(w.txn); err != nil {
			w.t.Fatal(err)
		}
	}
}

// collections lists the collections a recovery would re-register: the
// catalog's entries, the checkpoint manifest's first, without repeats.
func collections(t *testing.T, res *Result) []string {
	t.Helper()
	var names []string
	for _, r := range res.Catalog {
		nc, err := DecodeNewCollection(r.Data)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(names, nc.Name) {
			names = append(names, nc.Name)
		}
	}
	return names
}

// insert runs one committed transaction appending each record to its file,
// the way Database.runTxn does.
func (w *redoWorld) insert(file []int, recs [][]byte) {
	w.t.Helper()
	w.txn++
	begin := w.log.Begin(w.txn)
	for i, f := range file {
		if _, err := w.files[f].Append(recs[i]); err != nil {
			w.log.Abort(w.txn)
			w.t.Fatal(err)
		}
	}
	if err := w.pool.DrainWriteSet(func(pw storage.PageWrite) error {
		return w.log.AppendPageWrite(w.txn, pw)
	}); err != nil {
		w.log.Abort(w.txn)
		w.t.Fatal(err)
	}
	lsn, err := w.log.Commit(w.txn)
	if err != nil {
		w.t.Fatal(err)
	}
	w.pool.CoverWriteSet(lsn, begin)
}

// pages lists every data page of the world, in file and page order.
func (w *redoWorld) pages() []storage.PageID {
	var ids []storage.PageID
	for _, hf := range w.files {
		for p := 0; p < hf.NumPages(); p++ {
			ids = append(ids, storage.PageID{File: hf.File(), Page: int32(p)})
		}
	}
	return ids
}

// forward returns the bytes each page holds in the pool — the state the
// committed transactions built, which recovery must reproduce exactly.
func (w *redoWorld) forward() map[storage.PageID][]byte {
	w.t.Helper()
	out := make(map[storage.PageID][]byte)
	for _, id := range w.pages() {
		p, err := w.pool.Pin(id)
		if err != nil {
			w.t.Fatal(err)
		}
		out[id] = bytes.Clone(p.Bytes())
		if err := w.pool.Unpin(id); err != nil {
			w.t.Fatal(err)
		}
	}
	return out
}

// crashCopy clones the device as a crash would leave it: whatever the pool
// still holds back is lost.
func (w *redoWorld) crashCopy() *storage.Disk { return cloneDisk(w.t, w.dev) }

// cloneDisk copies every page of dev onto a fresh disk, as a page set that
// carries every file whole.
func cloneDisk(t *testing.T, dev storage.Device) *storage.Disk {
	t.Helper()
	var img bytes.Buffer
	every := func(storage.FileID) (int32, bool) { return 0, true }
	if _, err := storage.WritePageSet(&img, dev, nil, nil, every); err != nil {
		t.Fatal(err)
	}
	disk := storage.NewDisk(dev.PageSize())
	if _, _, err := storage.ApplyPageSet(&img, disk, nil); err != nil {
		t.Fatal(err)
	}
	return disk
}

// pageHistory returns the committed page records of the log on dev for one
// page, in LSN order.
func pageHistory(t *testing.T, dev storage.Device, id storage.PageID) []Record {
	t.Helper()
	_, records := streamOf(t, dev)
	var out []Record
	for _, r := range records {
		if (r.Type == RecImage || r.Type == RecAppend) && r.Page == id {
			out = append(out, r)
		}
	}
	return out
}

func checkPages(t *testing.T, label string, dev storage.Device, want map[storage.PageID][]byte) {
	t.Helper()
	buf := make([]byte, dev.PageSize())
	for id, w := range want {
		if _, err := storage.ReadVerified(dev, id, buf, storage.RetryPolicy{}); err != nil {
			t.Fatalf("%s: page %v: %v", label, id, err)
		}
		if !bytes.Equal(buf, w) {
			t.Fatalf("%s: page %v differs from the forward bytes", label, id)
		}
	}
}

// checkpoint takes a fuzzy checkpoint whose sweep skips pages at random, so
// some stay dirty across it and land in its dirty-page table. It returns the
// checkpoint's redo floor: every change below it is on the device.
func (w *redoWorld) checkpoint(rng *rand.Rand) LSN {
	w.t.Helper()
	lb := w.log.AppendCheckpointBegin()
	for _, id := range w.pages() {
		if rng.Intn(3) == 0 {
			continue
		}
		// Whichever dirty page comes first from id on: the table below is
		// cut from the pool's state either way.
		id.Page--
		if _, _, err := w.pool.FlushOneDirty(id); err != nil {
			w.t.Fatal(err)
		}
	}
	cp := Checkpoint{BeginLSN: lb, NextTxn: w.txn + 1}
	for _, d := range w.pool.DirtyPageTable() {
		cp.DPT = append(cp.DPT, DirtyPage{Page: d.ID, RecLSN: d.RedoLSN})
	}
	for i, hf := range w.files {
		cp.Manifest = append(cp.Manifest, Record{Type: RecNewCollection, Data: EncodeNewCollection(NewCollection{
			Name: fmt.Sprintf("f%d", i), HeapFile: hf.File(),
		})})
	}
	if _, err := w.log.AppendCheckpointEnd(cp, w.truncate); err != nil {
		w.t.Fatal(err)
	}
	w.log.TruncateBelow(cp.RedoFloor())
	return cp.RedoFloor()
}

// runPageRedo is the property behind FuzzPageRedo: a random history of
// committed inserts over a few pages, with frames becoming clean at random
// points (evictions from a small pool, single write-backs, the partial
// sweeps of fuzzy checkpoints), a crash with random dirty pages torn
// mid-write-back, and then
//
//   - redo bounded by the last checkpoint, redo from LSN 0 and redo from a
//     random honest floor each rebuild every page byte for byte (I2), torn
//     pages included (I1 put their image among the records to redo);
//   - the same redo over the same device bytes by a scan from page 0, which
//     trusts no stamp, rebuilds the same pages, the same catalog and the same
//     log position (I4: the bounded scan lost nothing recovery needs);
//   - redoing again from any floor changes nothing (I2, idempotence);
//   - with the image of a torn page cut off by the floor, redo fails with a
//     *RedoError naming the page and its checksum (I3).
//
// With truncate the world's checkpoints raise the scan floor, so every
// recovery above starts at the live head.
func runPageRedo(t *testing.T, seed int64, truncate bool) {
	rng := rand.New(rand.NewSource(seed))
	// Half the worlds have a pool too small for their pages, so evictions
	// clean frames too; the other half keep every page resident, so a page
	// lives through several checkpoints.
	frames := 3 + rng.Intn(4)
	if rng.Intn(2) == 0 {
		frames = 64
	}
	w := newRedoWorld(t, 512, frames, 2+rng.Intn(2))
	w.truncate = truncate
	w.register()
	cleanLSN := LSN(1) // every change below it is on the device
	randRec := func() []byte {
		rec := make([]byte, 4+rng.Intn(40))
		rng.Read(rec)
		return rec
	}
	for op, ops := 0, 20+rng.Intn(120); op < ops; op++ {
		switch k := rng.Intn(20); {
		case k <= 1:
			cleanLSN = w.checkpoint(rng)
		case k <= 3:
			// One frame becomes clean on its own, as an eviction would
			// have it.
			if pages := w.pages(); len(pages) > 0 {
				if _, _, err := w.pool.FlushOneDirty(pages[rng.Intn(len(pages))]); err != nil {
					t.Fatal(err)
				}
			}
		default:
			n := 1 + rng.Intn(3)
			files, recs := make([]int, n), make([][]byte, n)
			for i := range files {
				files[i], recs[i] = rng.Intn(len(w.files)), randRec()
			}
			w.insert(files, recs)
		}
	}
	if err := w.log.Sync(); err != nil {
		t.Fatal(err)
	}
	want := w.forward()
	end := w.log.DurableLSN()

	// The crash: the device as it is, with some of the pages a write-back
	// could have been in flight for torn — twice over, for the two scans.
	fd, fd0 := fault.Wrap(w.crashCopy(), fault.Options{}), fault.Wrap(w.crashCopy(), fault.Options{})
	for _, id := range w.pages() {
		if w.pool.Dirty(id) && rng.Intn(4) != 0 {
			fd.TearPage(id)
			fd0.TearPage(id)
		}
	}
	opts := Options{} // bounded by the last checkpoint
	switch rng.Intn(4) {
	case 0:
		opts = Options{IgnoreCheckpoints: true}
	case 1:
		opts = Options{ApplyFloor: cleanLSN}
	case 2:
		opts = Options{ApplyFloor: 1 + rng.Int63n(int64(cleanLSN))}
	}
	bounded, err := RecoverWith(fd, opts)
	if err != nil {
		t.Fatalf("seed %d: redo with %+v (clean below %d): %v", seed, opts, cleanLSN, err)
	}
	checkPages(t, fmt.Sprintf("seed %d: redo with %+v", seed, opts), fd, want)
	if bounded.Log.ScanFloor() > 0 && bounded.Stats.HeadPage == 0 {
		t.Fatalf("seed %d: recovery under scan floor %d started at page 0", seed, bounded.Log.ScanFloor())
	}
	full, err := recoverFrom(fd0, opts, logHead{})
	if err != nil {
		t.Fatalf("seed %d: redo with %+v scanning from page 0: %v", seed, opts, err)
	}
	checkPages(t, fmt.Sprintf("seed %d: redo with %+v scanning from page 0", seed, opts), fd0, want)
	if b, f := bounded.Log.DurableLSN(), full.Log.DurableLSN(); b != f {
		t.Fatalf("seed %d: bounded scan resumes the log at LSN %d, the scan from page 0 at %d", seed, b, f)
	}
	if !opts.IgnoreCheckpoints { // ignoring the end record forfeits what only it remembers below the floor
		if b, f := bounded.Stats.NextTxn, full.Stats.NextTxn; b != f {
			t.Fatalf("seed %d: bounded scan resumes at txn %d, the scan from page 0 at %d", seed, b, f)
		}
		if b, f := collections(t, bounded), collections(t, full); !slices.Equal(b, f) || len(b) != len(w.files) {
			t.Fatalf("seed %d: bounded scan recovers collections %v, the scan from page 0 %v", seed, b, f)
		}
	}

	// Twice equals once, from any floor: the device now holds everything.
	again := 1 + rng.Int63n(int64(end))
	res, err := RecoverWith(fd, Options{ApplyFloor: again})
	if err != nil {
		t.Fatalf("seed %d: second redo from floor %d: %v", seed, again, err)
	}
	checkPages(t, fmt.Sprintf("seed %d: second redo from floor %d", seed, again), fd, want)
	if _, err := RecoverWith(fd, Options{ApplyFloor: end}); err != nil || res.Stats.NextApplyFloor != end {
		t.Fatalf("seed %d: redo from the log's end: floor %d, want %d (%v)", seed, res.Stats.NextApplyFloor, end, err)
	}

	// I3: tear a page whose history has appends after its last image, and
	// cut the image off.
	for _, id := range w.pages() {
		hist := pageHistory(t, fd, id)
		last := -1
		for i, r := range hist {
			if startsPage(r) {
				last = i
			}
		}
		if last < 0 || last == len(hist)-1 {
			continue
		}
		fd.TearPage(id)
		_, err := RecoverWith(fd, Options{ApplyFloor: hist[last].LSN + 1})
		var re *RedoError
		if !errors.As(err, &re) || re.Page != id || !storage.IsChecksum(err) {
			t.Fatalf("seed %d: redo of torn %v without its image: got %v, want a RedoError wrapping its checksum failure", seed, id, err)
		}
		if _, err := RecoverWith(fd, Options{ApplyFloor: hist[last].LSN}); err != nil {
			t.Fatalf("seed %d: redo of torn %v with its image: %v", seed, id, err)
		}
		checkPages(t, fmt.Sprintf("seed %d: torn %v mended", seed, id), fd, want)
		break
	}
}

// FuzzPageRedo fuzzes runPageRedo's seed; the corpus below runs as a plain
// test on every `go test`.
func FuzzPageRedo(f *testing.F) {
	for seed := int64(1); seed <= 60; seed++ {
		f.Add(seed, false)
		f.Add(seed, true) // every checkpoint stamps a raised floor
	}
	f.Fuzz(func(t *testing.T, seed int64, truncate bool) { runPageRedo(t, seed, truncate) })
}

// TestImageFirst pins invariant I1 on the log itself: the first record a
// page gets after each clean state of its frame is an image or a slot-0
// append, and everything until the next clean state is an append.
func TestImageFirst(t *testing.T) {
	w := newRedoWorld(t, 256, 8, 1)
	rec := bytes.Repeat([]byte{0xAB}, 20)
	one := func() { w.insert([]int{0}, [][]byte{rec}) }
	kinds := func() string {
		var b strings.Builder
		for _, r := range pageHistory(t, w.dev, storage.PageID{File: w.files[0].File()}) {
			switch {
			case r.Type == RecImage:
				b.WriteByte('I')
			case startsPage(r):
				b.WriteByte('0')
			default:
				b.WriteByte('a')
			}
		}
		return b.String()
	}
	one() // fresh page: slot 0 starts its history, no image needed
	one()
	one()
	if err := w.pool.Flush(); err != nil { // written back: clean
		t.Fatal(err)
	}
	one() // first change since clean: image
	one()
	if err := w.pool.DropAll(); err != nil { // evicted and reloaded: clean
		t.Fatal(err)
	}
	one() // image again
	one()
	if _, _, err := w.pool.FlushOneDirty(storage.PageID{File: -1}); err != nil { // the checkpoint's sweep
		t.Fatal(err)
	}
	one()
	if err := w.log.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := kinds(), "0aaIaIaI"; got != want {
		t.Fatalf("page history is %q, want %q (I image, 0 slot-0 append, a append)", got, want)
	}
	st := w.log.Stats()
	if st.Images != 3 || st.Appends != 5 {
		t.Errorf("log counted %d images and %d appends, want 3 and 5", st.Images, st.Appends)
	}
}

// TestUnknownMutationLogsTheImage checks the degrade-to-today path: a page
// dirtied with a bare MarkDirty, or appended to out of sequence, is a change
// the pool cannot describe, and the write set asks for its image.
func TestUnknownMutationLogsTheImage(t *testing.T) {
	w := newRedoWorld(t, 256, 8, 1)
	w.insert([]int{0, 0}, [][]byte{{1}, {2}})
	id := storage.PageID{File: w.files[0].File()}
	drain := func() storage.PageWrite {
		t.Helper()
		var got []storage.PageWrite
		if err := w.pool.DrainWriteSet(func(pw storage.PageWrite) error {
			got = append(got, pw)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		w.pool.CoverWriteSet(w.log.DurableLSN(), 1)
		if len(got) != 1 || got[0].ID != id {
			t.Fatalf("write set = %+v, want one entry for %v", got, id)
		}
		return got[0]
	}
	if err := w.pool.MarkAppended(id, 2); err != nil {
		t.Fatal(err)
	}
	if pw := drain(); pw.Image || pw.First != 2 || pw.N != 1 {
		t.Errorf("in-sequence append on an anchored page: %+v, want slot 2 as an append", pw)
	}
	if err := w.pool.MarkDirty(id); err != nil {
		t.Fatal(err)
	}
	if pw := drain(); !pw.Image {
		t.Errorf("bare MarkDirty: %+v, want an image", pw)
	}
	if err := w.pool.MarkAppended(id, 3); err != nil {
		t.Fatal(err)
	}
	if err := w.pool.MarkAppended(id, 5); err != nil {
		t.Fatal(err)
	}
	if pw := drain(); !pw.Image {
		t.Errorf("appends out of sequence: %+v, want an image", pw)
	}
	if err := w.pool.MarkAppended(id, 3); err != nil {
		t.Fatal(err)
	}
	if err := w.pool.MarkDirty(id); err != nil {
		t.Fatal(err)
	}
	if pw := drain(); !pw.Image {
		t.Errorf("append then bare MarkDirty: %+v, want an image", pw)
	}
}

// TestRedoPerPage checks I2's accounting: a page with many records to redo
// is read at most once and written at most once, a page the device already
// holds is not written at all, and the latest image makes older records
// moot.
func TestRedoPerPage(t *testing.T) {
	w := newRedoWorld(t, 256, 8, 2)
	rec := bytes.Repeat([]byte{7}, 16)
	for i := 0; i < 6; i++ {
		w.insert([]int{0, 1}, [][]byte{rec, rec})
	}
	want := w.forward()
	// Nothing was ever written back: both pages rebuild from their slot-0
	// appends, no device read, one write each.
	dev := w.crashCopy()
	before := dev.Stats()
	res, err := RecoverWith(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	after := dev.Stats()
	if got := after.Writes - before.Writes; got != 2 || res.Stats.PagesRestored != 2 {
		t.Errorf("redo of 12 appends over 2 pages wrote %d pages (PagesRestored %d), want 2", got, res.Stats.PagesRestored)
	}
	if got := after.Reads - before.Reads - res.Stats.LogPagesRead - res.Stats.ProbePagesRead; got != 0 {
		t.Errorf("redo from slot-0 appends read %d data pages, want 0", got)
	}
	if res.Stats.RecordsReplayed != 12 {
		t.Errorf("RecordsReplayed = %d, want 12", res.Stats.RecordsReplayed)
	}
	checkPages(t, "first redo", dev, want)

	// Re-redo only the tail of each page's history: one read per page to
	// find the slots present, no write.
	hist := pageHistory(t, dev, storage.PageID{File: w.files[0].File()})
	before = dev.Stats()
	res, err = RecoverWith(dev, Options{ApplyFloor: hist[3].LSN})
	if err != nil {
		t.Fatal(err)
	}
	after = dev.Stats()
	if got := after.Writes - before.Writes; got != 0 || res.Stats.PagesRestored != 0 {
		t.Errorf("re-redo of present slots wrote %d pages, want 0", got)
	}
	if got := after.Reads - before.Reads - res.Stats.LogPagesRead - res.Stats.ProbePagesRead; got != 2 {
		t.Errorf("re-redo read %d data pages, want 2 (one per page, not one per record)", got)
	}
	checkPages(t, "re-redo", dev, want)
}

// TestRedoGapIsTyped checks the other half of I3: an append whose slot the
// base page is not ready for — the floor claimed more than the device
// holds — is a *RedoError, not a page silently missing records.
func TestRedoGapIsTyped(t *testing.T) {
	w := newRedoWorld(t, 256, 8, 1)
	rec := bytes.Repeat([]byte{7}, 16)
	for i := 0; i < 4; i++ {
		w.insert([]int{0}, [][]byte{rec})
	}
	id := storage.PageID{File: w.files[0].File()}
	dev := w.crashCopy() // the page was never written back: the device holds zeros
	hist := pageHistory(t, dev, id)
	_, err := RecoverWith(dev, Options{ApplyFloor: hist[2].LSN})
	var re *RedoError
	if !errors.As(err, &re) || re.Page != id || re.LSN != hist[2].LSN {
		t.Fatalf("redo of slot 2 onto an empty page: got %v, want a RedoError at LSN %d", err, hist[2].LSN)
	}
	if storage.IsChecksum(err) {
		t.Errorf("a gap is not a checksum failure: %v", err)
	}
}

// TestRecordTypeRegistry walks every record type the parsers accept: each
// has a name of its own, survives an encode/parse round trip, and the first
// value past the registry is rejected as a torn tail.
func TestRecordTypeRegistry(t *testing.T) {
	seen := make(map[string]RecordType)
	for typ := RecHeader; typ < recTypeEnd; typ++ {
		name := typ.String()
		if strings.HasPrefix(name, "RecordType(") {
			t.Errorf("record type %d has no name", typ)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("record types %d and %d share the name %q", prev, typ, name)
		}
		seen[name] = typ
	}
	if seen["append"] != RecAppend || seen["image"] != RecImage {
		t.Errorf("redo record names: %v", seen)
	}
	if got := recTypeEnd.String(); got != fmt.Sprintf("RecordType(%d)", uint8(recTypeEnd)) {
		t.Errorf("unregistered type prints %q", got)
	}

	l := newLog(storage.NewDisk(256), 1)
	for typ := RecHeader; typ < recTypeEnd; typ++ {
		l.append(Record{Type: typ, Txn: uint64(typ), Page: storage.PageID{File: 3, Page: int32(typ)}, Data: []byte{0, 0, byte(typ)}})
	}
	stream := bytes.Clone(l.tail)
	records, consumed := parseStream(0, stream)
	if int(consumed) != len(stream) || len(records) != int(recTypeEnd-RecHeader) {
		t.Fatalf("parsed %d records over %d of %d bytes", len(records), consumed, len(stream))
	}
	for i, r := range records {
		if want := RecHeader + RecordType(i); r.Type != want || r.Txn != uint64(want) || r.Page.Page != int32(want) || r.Data[2] != byte(want) {
			t.Errorf("record %d round-tripped as %+v", i, r)
		}
	}
	if n := completePrefix(0, stream, 0); n != len(stream) {
		t.Errorf("completePrefix accepts %d of %d bytes", n, len(stream))
	}
	if slot, rec, err := records[RecAppend-RecHeader].Append(); err != nil || slot != 0 || len(rec) != 1 {
		t.Errorf("append payload decodes to slot %d, %d bytes, %v", slot, len(rec), err)
	}
	if _, _, err := records[RecImage-RecHeader].Append(); err == nil {
		t.Error("an image record decoded as an append")
	}
	l.append(Record{Type: recTypeEnd})
	if _, consumed := parseStream(0, l.tail); int(consumed) != len(stream) {
		t.Errorf("parser consumed %d bytes, want it to stop at the unregistered type after %d", consumed, len(stream))
	}
}
