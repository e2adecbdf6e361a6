package storage

import (
	"errors"
	"sort"
	"sync"
	"testing"
)

// orderDevice records the order of successful page writes.
type orderDevice struct {
	Device
	mu     sync.Mutex
	writes []PageID
}

func (d *orderDevice) WritePage(id PageID, buf []byte) error {
	if err := d.Device.WritePage(id, buf); err != nil {
		return err
	}
	d.mu.Lock()
	d.writes = append(d.writes, id)
	d.mu.Unlock()
	return nil
}

// fakeWAL implements the WAL interface with a controllable durability
// horizon.
type fakeWAL struct {
	mu      sync.Mutex
	durable int64
	syncs   int
	syncTo  int64 // durable LSN after the next Sync
}

func (w *fakeWAL) DurableLSN() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durable
}

func (w *fakeWAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.syncs++
	w.durable = w.syncTo
	return nil
}

// allocPages allocates n pages in one new file.
func allocPages(t *testing.T, dev Device, n int) []PageID {
	t.Helper()
	f := dev.CreateFile()
	ids := make([]PageID, n)
	for i := range ids {
		id, err := dev.AllocPage(f)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// fetchDirty makes the page resident and dirty through Write, reporting
// slot 1: on a frame just filled that is an append the log has no base
// for, so the write set asks for the page's image.
func fetchDirty(t *testing.T, bp *BufferPool, id PageID) {
	t.Helper()
	writeSlot(t, bp, id, 1)
}

// writeSlot reports an append at slot to the page through Write.
func writeSlot(t *testing.T, bp *BufferPool, id PageID, slot int) {
	t.Helper()
	if err := bp.Write(id, func(*Page) (int, error) { return slot, nil }); err != nil {
		t.Fatal(err)
	}
}

// dirtyPages allocates n pages in one file and dirties them in the given
// order.
func dirtyPages(t *testing.T, bp *BufferPool, dev Device, order []int) []PageID {
	t.Helper()
	ids := allocPages(t, dev, len(order))
	for _, i := range order {
		fetchDirty(t, bp, ids[i])
	}
	return ids
}

// drainWriteSet returns what the pool would have the open transaction log,
// without the page pointers (they are the pool's).
func drainWriteSet(t *testing.T, bp *BufferPool) []PageWrite {
	t.Helper()
	var ws []PageWrite
	if err := bp.DrainWriteSet(func(w PageWrite) error {
		w.Page = nil
		ws = append(ws, w)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ws
}

// TestFlushAscendingPageOrder checks Flush writes dirty frames in ascending
// PageID order regardless of dirtying order — the elevator schedule the
// paper's sequential-I/O cost model assumes.
func TestFlushAscendingPageOrder(t *testing.T) {
	dev := &orderDevice{Device: NewDisk(64)}
	bp, err := NewBufferPool(dev, 16)
	if err != nil {
		t.Fatal(err)
	}
	dirtyPages(t, bp, dev, []int{5, 0, 3, 7, 1, 6, 2, 4})
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(dev.writes) != 8 {
		t.Fatalf("flushed %d pages, want 8", len(dev.writes))
	}
	if !sort.SliceIsSorted(dev.writes, func(i, j int) bool {
		return comparePageIDs(dev.writes[i], dev.writes[j]) < 0
	}) {
		t.Errorf("flush order not ascending: %v", dev.writes)
	}
}

// TestUnloggedDirtyBlocksFlushAndEviction checks the no-steal discipline: a
// frame dirtied under a WAL but not yet covered by a durable LSN can be
// neither flushed nor evicted.
func TestUnloggedDirtyBlocksFlushAndEviction(t *testing.T) {
	dev := NewDisk(64)
	bp, err := NewBufferPool(dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := &fakeWAL{}
	bp.SetWAL(w)
	f := dev.CreateFile()
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, err := dev.AllocPage(f)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	fetchDirty(t, bp, ids[0])
	if got := drainWriteSet(t, bp); len(got) != 1 || got[0].ID != ids[0] || !got[0].Image {
		t.Fatalf("write set = %+v, want the image of %v", got, ids[0])
	}
	if err := bp.Flush(); err == nil {
		t.Fatal("Flush persisted an unlogged dirty frame")
	}
	// Fill the pool; eviction must pass over the unlogged frame.
	if _, err := bp.Fetch(ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Fetch(ids[2]); err != nil {
		t.Fatal(err)
	}
	if !bp.Resident(ids[0]) {
		t.Fatal("eviction stole an unlogged dirty frame")
	}
	if dev.Stats().Writes != 0 {
		t.Fatalf("device saw %d writes before commit", dev.Stats().Writes)
	}

	// Commit: cover the frame with an LSN the WAL will report durable.
	w.syncTo = 100
	bp.CoverWriteSet(100, 40)
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.syncs != 1 {
		t.Errorf("flush forced %d WAL syncs, want 1", w.syncs)
	}
	if got := bp.Stats().WALSyncs; got != 1 {
		t.Errorf("WALSyncs stat = %d, want 1", got)
	}
	if dev.Stats().Writes != 1 {
		t.Errorf("device writes after flush = %d, want 1", dev.Stats().Writes)
	}
}

// TestFlushSkipsWALSyncWhenAlreadyDurable checks write-back does not force a
// redundant sync when the covering LSN is already durable.
func TestFlushSkipsWALSyncWhenAlreadyDurable(t *testing.T) {
	dev := NewDisk(64)
	bp, err := NewBufferPool(dev, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := &fakeWAL{durable: 500}
	bp.SetWAL(w)
	f := dev.CreateFile()
	id, err := dev.AllocPage(f)
	if err != nil {
		t.Fatal(err)
	}
	fetchDirty(t, bp, id)
	bp.CoverWriteSet(400, 350)
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.syncs != 0 {
		t.Errorf("flush forced %d WAL syncs for an already-durable LSN", w.syncs)
	}
}

// TestCloseSyncsGroupCommitBuffer is the regression test for a clean-
// shutdown durability hole: with a group-commit policy batching several
// commits per sync, a Close that only flushed dirty frames could find none
// (all already written back) and never force the log, silently dropping
// the buffered tail of committed transactions. Close must sync the WAL
// unconditionally.
func TestCloseSyncsGroupCommitBuffer(t *testing.T) {
	dev := NewDisk(64)
	bp, err := NewBufferPool(dev, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := &fakeWAL{syncTo: 700}
	bp.SetWAL(w)
	// No dirty frame anywhere: the only thing Close has to do is force the
	// log's buffered commits durable.
	if err := bp.Close(); err != nil {
		t.Fatal(err)
	}
	if w.syncs != 1 {
		t.Fatalf("Close forced %d WAL syncs with no dirty frames, want 1", w.syncs)
	}
	if w.DurableLSN() != 700 {
		t.Fatalf("durable LSN after Close = %d, want 700", w.DurableLSN())
	}
	// Idempotent: a second Close syncs again harmlessly and still succeeds.
	if err := bp.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDirtyPageTable checks the DPT reports exactly the committed-dirty
// frames, with their redo floors, in ascending PageID order — and that a
// frame re-dirtied across transactions keeps the earliest floor.
func TestDirtyPageTable(t *testing.T) {
	dev := NewDisk(64)
	bp, err := NewBufferPool(dev, 16)
	if err != nil {
		t.Fatal(err)
	}
	w := &fakeWAL{durable: 1 << 30}
	bp.SetWAL(w)
	ids := allocPages(t, dev, 4)
	// Pages 0..2 committed by three transactions with distinct floors,
	// dirtied out of page order; page 3 stays unlogged (open transaction)
	// and must not appear.
	fetchDirty(t, bp, ids[2])
	bp.CoverWriteSet(300, 250)
	fetchDirty(t, bp, ids[0])
	bp.CoverWriteSet(100, 90)
	fetchDirty(t, bp, ids[1])
	bp.CoverWriteSet(200, 150)
	fetchDirty(t, bp, ids[3])
	dpt := bp.DirtyPageTable()
	if len(dpt) != 3 {
		t.Fatalf("DPT has %d entries, want 3: %v", len(dpt), dpt)
	}
	wantFloor := []int64{90, 150, 250}
	for i, d := range dpt {
		if d.ID != ids[i] || d.RedoLSN != wantFloor[i] {
			t.Errorf("DPT[%d] = {%v %d}, want {%v %d}", i, d.ID, d.RedoLSN, ids[i], wantFloor[i])
		}
	}
	// Re-dirty page 0 under a later transaction: the floor must not rise.
	fetchDirty(t, bp, ids[0])
	bp.CoverWriteSet(900, 850)
	if got := bp.DirtyPageTable()[0].RedoLSN; got != 90 {
		t.Errorf("re-dirtied frame's redo floor = %d, want the original 90", got)
	}
}

// TestFlushOneDirty checks the incremental checkpoint flush: ascending
// PageID order one frame per call, unlogged frames skipped and left dirty,
// and termination once nothing above the cursor remains.
func TestFlushOneDirty(t *testing.T) {
	dev := &orderDevice{Device: NewDisk(64)}
	bp, err := NewBufferPool(dev, 16)
	if err != nil {
		t.Fatal(err)
	}
	w := &fakeWAL{durable: 1 << 30}
	bp.SetWAL(w)
	ids := allocPages(t, dev, 5)
	for _, i := range []int{4, 1, 3, 0} {
		fetchDirty(t, bp, ids[i])
		bp.CoverWriteSet(int64(1000+i), int64(500+i))
	}
	fetchDirty(t, bp, ids[2]) // left unlogged: an open transaction holds it
	prev := PageID{File: -1, Page: -1}
	var flushed []PageID
	for {
		id, ok, err := bp.FlushOneDirty(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		flushed = append(flushed, id)
		prev = id
	}
	if len(flushed) != 4 {
		t.Fatalf("flushed %d frames, want 4 (unlogged frame must be skipped): %v", len(flushed), flushed)
	}
	if !sort.SliceIsSorted(flushed, func(i, j int) bool { return comparePageIDs(flushed[i], flushed[j]) < 0 }) {
		t.Errorf("incremental flush order not ascending: %v", flushed)
	}
	dpt := bp.DirtyPageTable()
	if len(dpt) != 0 {
		t.Errorf("DPT after incremental flush = %v, want empty (open-txn frame has no committed image)", dpt)
	}
	if got := drainWriteSet(t, bp); len(got) != 1 || got[0].ID != ids[2] {
		t.Errorf("write set after flush = %+v, want [%v]", got, ids[2])
	}
}

// TestWriteLeavesAnUnchangedPageClean checks Write's two ways of changing
// nothing: a negative slot (the page was full) and an error from f. Either
// leaves the frame clean and out of the open transaction's write set, and
// the error comes back.
func TestWriteLeavesAnUnchangedPageClean(t *testing.T) {
	dev := NewDisk(64)
	bp, err := NewBufferPool(dev, 4)
	if err != nil {
		t.Fatal(err)
	}
	bp.SetWAL(&fakeWAL{})
	id := allocPages(t, dev, 1)[0]
	writeSlot(t, bp, id, -1)
	if bp.Dirty(id) {
		t.Fatal("a negative slot dirtied the frame")
	}
	errFull := errors.New("full")
	if err := bp.Write(id, func(*Page) (int, error) { return 0, errFull }); !errors.Is(err, errFull) {
		t.Fatalf("Write = %v, want f's error", err)
	}
	if bp.Dirty(id) {
		t.Fatal("an error from f dirtied the frame")
	}
	if got := drainWriteSet(t, bp); len(got) != 0 {
		t.Fatalf("write set = %+v, want empty", got)
	}
	if err := bp.Flush(); err != nil {
		t.Fatalf("Flush over a clean pool: %v", err)
	}
}

// TestWriteRecordsItsSlot checks what Write puts in the write set under a
// WAL: a returned slot is a one-slot entry, consecutive slots chain into one
// entry, and a slot out of sequence degrades the entry to an image. An
// append that starts the page over at slot 0 needs no image even on a frame
// just filled; one on top of a base the log does not hold does.
func TestWriteRecordsItsSlot(t *testing.T) {
	dev := NewDisk(64)
	bp, err := NewBufferPool(dev, 4)
	if err != nil {
		t.Fatal(err)
	}
	bp.SetWAL(&fakeWAL{durable: 1 << 30})
	ids := allocPages(t, dev, 2)
	a, b := ids[0], ids[1]
	commit := func(want ...PageWrite) {
		t.Helper()
		got := drainWriteSet(t, bp)
		if len(got) != len(want) {
			t.Fatalf("write set = %+v, want %+v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("write set = %+v, want %+v", got, want)
			}
		}
		bp.CoverWriteSet(100, 50)
	}
	writeSlot(t, bp, a, 0)
	writeSlot(t, bp, b, 3)
	commit(PageWrite{ID: a, First: 0, N: 1}, PageWrite{ID: b, First: 3, N: 1, Image: true})
	for _, slot := range []int{1, 2, 3} {
		writeSlot(t, bp, a, slot)
	}
	commit(PageWrite{ID: a, First: 1, N: 3})
	writeSlot(t, bp, a, 4)
	writeSlot(t, bp, a, 6)
	commit(PageWrite{ID: a, Image: true})
}

// TestOpenHeapFileSkipsUninitializedPages checks OpenHeapFile tolerates
// trailing zeroed pages, which recovery leaves behind when a crash lands
// after AllocPage but before the first image of the page commits.
func TestOpenHeapFileSkipsUninitializedPages(t *testing.T) {
	dev := NewDisk(256)
	bp, err := NewBufferPool(dev, 8)
	if err != nil {
		t.Fatal(err)
	}
	hf, err := NewHeapFile(bp, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 10; i++ {
		rid, err := hf.Append([]byte("record-payload"))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	// Trailing allocated-but-never-written pages.
	for i := 0; i < 3; i++ {
		if _, err := dev.AllocPage(hf.File()); err != nil {
			t.Fatal(err)
		}
	}
	bp2, err := NewBufferPool(dev, 8)
	if err != nil {
		t.Fatal(err)
	}
	visited := 0
	hf2, err := OpenHeapFile(bp2, hf.File(), 1.0, func(RID, []byte) error { visited++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n := fileRecords(t, hf2); n != len(rids) || visited != len(rids) {
		t.Fatalf("reopened heap has %d records and visited %d, want %d", n, visited, len(rids))
	}
	// New inserts must go to initialized territory and stay readable.
	if _, err := hf2.Append([]byte("post-reopen")); err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := OpenHeapFile(bp2, hf.File(), 1.0, func(RID, []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != len(rids)+1 {
		t.Errorf("scan after reopen saw %d records, want %d", n, len(rids)+1)
	}
}
