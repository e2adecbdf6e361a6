package storage

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"spatialjoin/internal/obs"
)

// PoolStats counts the buffer pool's activity. LogicalReads is every page
// request; Misses are the requests that went to disk. The paper's cost
// figures charge C_IO per physical access, i.e. per miss. ReadRetries and
// WriteRetries are the physical attempts beyond the first that the pool's
// retry policy issued — they keep the accounting honest when the device
// underneath injects faults: physical attempts = Misses + ReadRetries on
// the read side, and analogously for write-backs.
type PoolStats struct {
	LogicalReads int64
	Misses       int64
	Evictions    int64
	ReadRetries  int64
	WriteRetries int64
	// WALSyncs counts the log syncs the pool forced before writing back a
	// dirty frame the durable log did not yet cover (the WAL-before-
	// write-back discipline).
	WALSyncs int64
}

// HitRatio returns the fraction of logical reads served from memory.
func (s PoolStats) HitRatio() float64 {
	if s.LogicalReads == 0 {
		return 0
	}
	return 1 - float64(s.Misses)/float64(s.LogicalReads)
}

// BufferPool caches up to Capacity pages in memory with exact LRU
// replacement. BufferPool is safe for concurrent use: the frame table and
// the page bytes are guarded by a mutex — a page is read inside Read and
// written inside Write or made inside create, each under it — while the
// activity counters are atomics so concurrent readers can snapshot
// statistics without serializing on the frame lock.
//
// The frame table is one array of Capacity frames, allocated with the pool
// and never moved; the recency order is a doubly-linked list threaded
// through the frames by index, and a directory indexed by file and page
// finds a resident page's frame. A frame's page buffer is carved from a
// slab of several pages when the frame is first filled and then stays with
// the pool: a miss reads into a spare buffer and swaps it with the
// victim's, so neither a hit nor a steady-state miss allocates. The price
// is the contract on Fetch: a page's bytes are only the caller's until the
// next pool call.
//
// Every physical transfer is verified end-to-end: pages read from the
// device are checked against the device's recorded checksum, so a page
// corrupted on media or in flight is detected here — before any executor
// can join over garbage — and surfaces as a *ChecksumError after the retry
// budget is exhausted.
type BufferPool struct {
	mu       sync.Mutex
	disk     Device
	capacity int
	retry    RetryPolicy
	wal      WAL // nil = no write-ahead logging

	frames     []frame     // frames[:used] hold pages; len == capacity
	used       int         // frames filled since the pool was last emptied
	dir        [][]int32   // dir[file][page]: the page's frame + 1, or 0 when not resident
	head, tail int32       // most and least recently used frame; noFrame when empty
	spare      []byte      // the buffer the next miss reads into; nil until needed
	slab       []byte      // uncarved page buffers for frames filled the first time
	writeSet   []pageTouch // pages the open transaction changed; always empty without a WAL

	logicalReads atomic.Int64
	misses       atomic.Int64
	evictions    atomic.Int64
	readRetries  atomic.Int64
	writeRetries atomic.Int64
	walSyncs     atomic.Int64
}

// WAL is the hook through which the pool enforces write-ahead logging
// without importing the log's package: DurableLSN is the log offset below
// which every record is on disk, and Sync forces the log durable. Both must
// be safe to call while the pool holds its frame lock.
type WAL interface {
	DurableLSN() int64
	Sync() error
}

// recLSN sentinels. A frame's recLSN is 0 when clean or when the pool has
// no WAL, lsnUnlogged while the frame carries modifications the log has not
// been told about (an open transaction), and otherwise the LSN of the
// commit record covering the frame's latest image.
const lsnUnlogged = int64(-1)

// frame is one cached page. recLSN gates durability (write-back waits until
// the log is durable past it); redoLSN is the recovery floor — the begin
// LSN of the earliest transaction whose committed images this frame still
// holds back from the device. Recovery starting redo at min(redoLSN) over
// all dirty frames is guaranteed to see every image the device is missing,
// because a transaction's images always carry LSNs at or above its begin
// record.
//
// anchored is the write-ahead log's image-first flag: the log holds a full
// image (or a slot-0 append, which rebuilds the page from nothing) of this
// page that is newer than the frame's last clean state, so later changes may
// be logged as slot appends on top of it. It is false on a frame just filled
// and cleared by every write-back: the device copy a torn write-back may
// destroy is then the only base, and the next logged change must be an
// image again.
//
// prev and next link the frame into the recency list (prev towards the most
// recently used end). page.buf is nil until the frame is first filled.
type frame struct {
	id         PageID
	page       Page
	recLSN     int64
	redoLSN    int64
	prev, next int32
	dirty      bool
	anchored   bool
}

// pageTouch is one page of the open transaction's write set: the run of
// consecutive slots appended to it, or whole once an append fell out of
// that sequence, so that the pool can describe the change no better than by
// the page's image.
type pageTouch struct {
	frame    int32
	first, n int32
	whole    bool
}

// PageWrite describes what the open transaction did to one page, for the
// transaction layer to log. Page is the frame's own and valid only during
// the DrainWriteSet callback.
type PageWrite struct {
	ID   PageID
	Page *Page
	// First and N name the slots First..First+N-1 the transaction appended.
	First, N int
	// Image demands a full page image rather than N append records: the
	// change is not a known run of appends, or the log holds no base for
	// appends to build on (the frame is not anchored and the run does not
	// start the page over at slot 0).
	Image bool
}

// noFrame terminates the recency list.
const noFrame = int32(-1)

// NewBufferPool returns a pool of capacity pages over disk, with the
// default retry policy. Capacity must be at least 1.
func NewBufferPool(disk Device, capacity int) (*BufferPool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("storage: buffer pool capacity %d < 1", capacity)
	}
	return &BufferPool{
		disk:     disk,
		capacity: capacity,
		retry:    DefaultRetryPolicy(),
		frames:   make([]frame, capacity),
		head:     noFrame,
		tail:     noFrame,
	}, nil
}

// frameOf returns the frame holding page id, if it is resident: two indexed
// loads, where a map would hash and probe, on every tuple read's page access.
func (bp *BufferPool) frameOf(id PageID) (int32, bool) {
	if id.File < 0 || int(id.File) >= len(bp.dir) {
		return noFrame, false
	}
	pages := bp.dir[id.File]
	if id.Page < 0 || int(id.Page) >= len(pages) || pages[id.Page] == 0 {
		return noFrame, false
	}
	return pages[id.Page] - 1, true
}

// setFrame sets page id's directory entry to v, a frame + 1 or 0, growing
// the directory to reach it: the device numbers files and pages densely.
func (bp *BufferPool) setFrame(id PageID, v int32) {
	if n := int(id.File) + 1; n > len(bp.dir) {
		bp.dir = append(bp.dir, make([][]int32, n-len(bp.dir))...)
	}
	if n := int(id.Page) + 1; n > len(bp.dir[id.File]) {
		bp.dir[id.File] = append(bp.dir[id.File], make([]int32, n-len(bp.dir[id.File]))...)
	}
	bp.dir[id.File][id.Page] = v
}

// unlinkLocked takes frame i out of the recency list.
func (bp *BufferPool) unlinkLocked(i int32) {
	f := &bp.frames[i]
	if f.prev != noFrame {
		bp.frames[f.prev].next = f.next
	} else {
		bp.head = f.next
	}
	if f.next != noFrame {
		bp.frames[f.next].prev = f.prev
	} else {
		bp.tail = f.prev
	}
}

// pushFrontLocked links frame i in as the most recently used.
func (bp *BufferPool) pushFrontLocked(i int32) {
	f := &bp.frames[i]
	f.prev, f.next = noFrame, bp.head
	if bp.head != noFrame {
		bp.frames[bp.head].prev = i
	} else {
		bp.tail = i
	}
	bp.head = i
}

// Capacity returns the pool size in pages (the model's parameter M).
func (bp *BufferPool) Capacity() int { return bp.capacity }

// Disk returns the underlying device.
func (bp *BufferPool) Disk() Device { return bp.disk }

// SetRetryPolicy replaces the pool's retry policy. Not safe to call
// concurrently with pool operations.
func (bp *BufferPool) SetRetryPolicy(p RetryPolicy) { bp.retry = p }

// SetWAL puts the pool under write-ahead logging: from now on every dirty
// frame is held back from the device until the log covers it. Call it
// before any page is dirtied; it is not safe to call concurrently with pool
// operations.
func (bp *BufferPool) SetWAL(w WAL) { bp.wal = w }

// ensureLoggedLocked enforces WAL-before-write-back for one dirty frame:
// a frame the log has not been told about may not touch the device at all,
// and one covered by a not-yet-durable commit forces a log sync first.
func (bp *BufferPool) ensureLoggedLocked(f *frame) error {
	if bp.wal == nil {
		return nil
	}
	if f.recLSN == lsnUnlogged {
		return fmt.Errorf("storage: page %v is dirty inside an open transaction; write-back would break the WAL discipline", f.id)
	}
	if f.recLSN > bp.wal.DurableLSN() {
		bp.walSyncs.Add(1)
		if err := bp.wal.Sync(); err != nil {
			return fmt.Errorf("storage: WAL sync before write-back of %v: %w", f.id, err)
		}
	}
	return nil
}

// writeBackLocked writes one dirty frame to the device under the WAL
// discipline and marks it clean; on failure the frame stays dirty.
func (bp *BufferPool) writeBackLocked(f *frame) error {
	if err := bp.ensureLoggedLocked(f); err != nil {
		return err
	}
	if err := bp.writePage(f.id, f.page.buf); err != nil {
		return err
	}
	f.dirty = false
	f.anchored = false
	f.recLSN = 0
	f.redoLSN = 0
	return nil
}

// readPage drives one logical read of the page into buf under the pool's
// retry policy (see ReadVerified), counting and recording each retry.
func (bp *BufferPool) readPage(id PageID, buf []byte) error {
	retries, err := ReadVerified(bp.disk, id, buf, bp.retry)
	for range retries {
		bp.readRetries.Add(1)
		obs.Record(obs.RecFaultRetry, obs.RecCodeRead, 0, int64(id.File), int64(id.Page))
	}
	return err
}

// writePage drives one write-back against the device under the retry
// policy, retrying transient faults only.
func (bp *BufferPool) writePage(id PageID, buf []byte) error {
	var last error
	budget := bp.retry.attempts()
	for attempt := 1; attempt <= budget; attempt++ {
		if attempt > 1 {
			bp.writeRetries.Add(1)
			obs.Record(obs.RecFaultRetry, obs.RecCodeWrite, 0, int64(id.File), int64(id.Page))
			bp.retry.pause(attempt-1, id)
		}
		err := bp.disk.WritePage(id, buf)
		if err == nil {
			return nil
		}
		last = err
		if !IsTransient(err) {
			break
		}
	}
	return fmt.Errorf("storage: write of page %v gave up after retries: %w", id, last)
}

// Fetch makes the page with the given id resident and most recently used,
// loading it from disk on a miss, and returns the frame's own Page. It is
// for the I/O charge alone: an evicted frame's buffer is reused for the
// incoming page, and writers change page bytes under the pool's lock, so
// page bytes are read only in Read and written only in Write and create.
// Fetch charges its miss to no query; a query's reads go through Read.
func (bp *BufferPool) Fetch(id PageID) (*Page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	i, err := bp.fetchLocked(id, nil)
	if err != nil {
		return nil, err
	}
	return &bp.frames[i].page, nil
}

// Read calls f with the page under the pool's lock, fetched as by Fetch. The
// page can be neither evicted nor written while f runs; f must not call
// into the pool.
//
// reads is the account of the query making the access: a miss increments
// it under the lock that decided the miss, beside the pool-wide count, so
// a query is charged exactly the misses its own reads caused and the
// queries' charges sum to the pool's misses. A page another query loaded
// is a hit for this one. A nil reads charges no query.
func (bp *BufferPool) Read(id PageID, reads *obs.Counter, f func(*Page) error) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	i, err := bp.fetchLocked(id, reads)
	if err != nil {
		return err
	}
	return f(&bp.frames[i].page)
}

// Write calls f with the page under the pool's lock, fetched as by Fetch:
// with create, the only place page bytes are written. f returns the slot
// it appended — the one change the engine makes to a page, Page.Insert's —
// or a negative slot when it left the page unchanged. An appended slot
// dirties the frame, so it is written back on eviction or Flush; under a
// WAL the frame also becomes unlogged-dirty and the open transaction's
// write set remembers the slot, so the transaction layer logs the record
// rather than the page, and the frame stays in memory until CoverWriteSet
// reports the covering commit. An error from f is returned and marks
// nothing; f must not call into the pool.
func (bp *BufferPool) Write(id PageID, f func(*Page) (slot int, err error)) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	i, err := bp.fetchLocked(id, nil)
	if err != nil {
		return err
	}
	return bp.writeLocked(i, f)
}

// create makes a new page of file by zeroing a frame, not by reading the
// zeroed page the device allocates, and runs f on its empty slotted page as
// Write does. It counts no logical read and no miss. Without a frame it
// allocates nothing.
func (bp *BufferPool) create(file FileID, f func(*Page) (slot int, err error)) (PageID, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	filling := bp.used < bp.capacity
	i, err := bp.freeFrameLocked()
	if err != nil {
		return PageID{}, err
	}
	fr := &bp.frames[i]
	id, err := bp.disk.AllocPage(file)
	if err != nil {
		// Hand the frame back: an unused one stays unused, and a victim,
		// written back clean, holds its page again.
		if filling {
			bp.used--
		} else {
			bp.setFrame(fr.id, i+1)
			bp.pushFrontLocked(i)
			bp.evictions.Add(-1)
		}
		return PageID{}, err
	}
	buf := fr.page.buf
	if buf == nil {
		buf = bp.carveLocked()
	}
	clear(buf)
	*fr = frame{id: id, page: Page{buf: buf}}
	fr.page.init()
	bp.setFrame(id, i+1)
	bp.pushFrontLocked(i)
	return id, bp.writeLocked(i, f)
}

// carveLocked cuts a page buffer from the slab, a fresh one of up to
// extentPages pages when it is spent. Its capacity is one page, so buffers
// swapped between frames and the spare never overlap.
func (bp *BufferPool) carveLocked() []byte {
	ps := bp.disk.PageSize()
	if len(bp.slab) < ps {
		bp.slab = make([]byte, ps*min(extentPages, bp.capacity+1))
	}
	buf := bp.slab[:ps:ps]
	bp.slab = bp.slab[ps:]
	return buf
}

// writeLocked runs f on frame i's page and marks the slot it appended.
func (bp *BufferPool) writeLocked(i int32, f func(*Page) (slot int, err error)) error {
	slot, err := f(&bp.frames[i].page)
	if err != nil || slot < 0 {
		return err
	}
	fr := &bp.frames[i]
	if bp.wal != nil {
		if !fr.dirty {
			// First dirtying since the last write-back: no committed change
			// is pending yet, so the frame has no redo floor until the
			// covering transaction reports one via CoverWriteSet.
			fr.redoLSN = lsnUnlogged
		}
		bp.touchLocked(i, fr.recLSN != lsnUnlogged, slot)
		fr.recLSN = lsnUnlogged
	}
	fr.dirty = true
	return nil
}

// fetchLocked makes the page resident and most recently used and returns
// its frame, charging a miss to reads as well as to the pool. A miss reads
// the page before it evicts: a read that fails leaves every resident page
// where it was.
func (bp *BufferPool) fetchLocked(id PageID, reads *obs.Counter) (int32, error) {
	bp.logicalReads.Add(1)
	if i, ok := bp.frameOf(id); ok {
		if i != bp.head {
			bp.unlinkLocked(i)
			bp.pushFrontLocked(i)
		}
		return i, nil
	}
	bp.misses.Add(1)
	reads.Inc()
	if bp.spare == nil {
		bp.spare = bp.carveLocked()
	}
	if err := bp.readPage(id, bp.spare); err != nil {
		return noFrame, err
	}
	i, err := bp.freeFrameLocked()
	if err != nil {
		return noFrame, err
	}
	// The frame takes the buffer just read; the buffer it held (nil if the
	// frame was never filled) becomes the spare for the next miss.
	f := &bp.frames[i]
	old := f.page.buf
	*f = frame{id: id, page: Page{buf: bp.spare}}
	bp.spare = old
	bp.setFrame(id, i+1)
	bp.pushFrontLocked(i)
	return i, nil
}

// freeFrameLocked returns a frame for an incoming page: the next unused one
// while the pool is filling, else the least recently used evictable one,
// writing it back if dirty. A victim whose write-back fails permanently is
// skipped — it stays resident and dirty so the data is not lost — and the
// next least-recently used frame is tried instead. Under a WAL, frames
// dirtied by an open transaction are likewise skipped (no-steal: an
// uncommitted image must never reach the device), and committed frames
// force the log durable before the write-back. It fails when every frame
// is unwritable or held by an open transaction.
func (bp *BufferPool) freeFrameLocked() (int32, error) {
	if bp.used < bp.capacity {
		bp.used++
		return int32(bp.used - 1), nil
	}
	var lastErr error
	for i := bp.tail; i != noFrame; i = bp.frames[i].prev {
		f := &bp.frames[i]
		if f.dirty && bp.wal != nil && f.recLSN == lsnUnlogged {
			continue
		}
		if f.dirty {
			if err := bp.writeBackLocked(f); err != nil {
				lastErr = err
				continue
			}
		}
		bp.unlinkLocked(i)
		bp.setFrame(f.id, 0)
		bp.evictions.Add(1)
		return i, nil
	}
	if lastErr != nil {
		return noFrame, fmt.Errorf("storage: buffer pool full and no victim writable: %w", lastErr)
	}
	return noFrame, fmt.Errorf("storage: buffer pool exhausted: all %d frames held by an open transaction", bp.capacity)
}

// Demote makes a resident page the least recently used, so that it is the
// next eviction victim: its reader is done with it. It does no I/O, counts
// no logical read and charges no query; a page that is not resident is
// left alone.
func (bp *BufferPool) Demote(id PageID) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if i, ok := bp.frameOf(id); ok && i != bp.tail {
		bp.unlinkLocked(i)
		bp.frames[i].prev, bp.frames[i].next = bp.tail, noFrame
		bp.frames[bp.tail].next = i
		bp.tail = i
	}
}

// residentLocked returns the page's frame, or nil when it is not cached.
func (bp *BufferPool) residentLocked(id PageID) *frame {
	i, ok := bp.frameOf(id)
	if !ok {
		return nil
	}
	return &bp.frames[i]
}

// touchLocked records an append at slot to frame i in the write set. A
// frame is in the set exactly while it is unlogged, so fresh says whether to
// add it. Appends extend the frame's run while they stay consecutive; a slot
// out of sequence, which the engine's one mutator never produces, degrades
// the entry to an image, never to a lost update.
func (bp *BufferPool) touchLocked(i int32, fresh bool, slot int) {
	if fresh {
		bp.writeSet = append(bp.writeSet, pageTouch{frame: i, first: int32(slot), n: 1})
		return
	}
	// The page a transaction is appending to is almost always the one it
	// touched last.
	for k := len(bp.writeSet) - 1; k >= 0; k-- {
		if t := &bp.writeSet[k]; t.frame == i {
			if !t.whole && int32(slot) == t.first+t.n {
				t.n++
			} else {
				t.whole = true
			}
			return
		}
	}
}

// DrainWriteSet hands the open transaction's write set to emit, one page at
// a time in ascending PageID order (so crash schedules keyed to write
// ordinals stay reproducible), and marks every page anchored: the caller
// must log each PageWrite as asked — an image where Image is set — before
// committing. The set itself stays until CoverWriteSet.
func (bp *BufferPool) DrainWriteSet(emit func(PageWrite) error) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	slices.SortFunc(bp.writeSet, func(a, b pageTouch) int {
		return comparePageIDs(bp.frames[a.frame].id, bp.frames[b.frame].id)
	})
	for _, t := range bp.writeSet {
		f := &bp.frames[t.frame]
		w := PageWrite{ID: f.id, Page: &f.page, Image: true}
		if !t.whole {
			w.First, w.N = int(t.first), int(t.n)
			w.Image = !f.anchored && t.first != 0
		}
		if err := emit(w); err != nil {
			return err
		}
		f.anchored = true
	}
	return nil
}

// CoverWriteSet records that the log covers the current content of every
// page in the write set up to commitLSN, making the frames eligible for
// write-back once the log is durable past it, and empties the set. redoLSN
// is the begin LSN of the covering transaction: replaying the log from
// there reconstructs everything the frames hold back from the device. A
// frame dirtied across several transactions keeps the earliest redo floor
// until a write-back cleans it, so the checkpoint's dirty-page table never
// under-reports how far back recovery must start.
func (bp *BufferPool) CoverWriteSet(commitLSN, redoLSN int64) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, t := range bp.writeSet {
		f := &bp.frames[t.frame]
		f.recLSN = commitLSN
		if f.redoLSN <= 0 || redoLSN < f.redoLSN {
			f.redoLSN = redoLSN
		}
	}
	bp.writeSet = bp.writeSet[:0]
}

// DirtyPage is one entry of the pool's dirty-page table: a resident page
// whose committed content has not reached the device, with the redo floor
// recovery must start at to reconstruct it.
type DirtyPage struct {
	ID      PageID
	RedoLSN int64
}

// DirtyPageTable snapshots the frames holding committed images back from
// the device, in ascending PageID order — the DPT a fuzzy checkpoint
// persists. Frames dirtied only by a still-open transaction are excluded:
// no committed image of theirs exists yet, and the checkpoint's active-
// transaction table covers them through the transaction's begin LSN.
func (bp *BufferPool) DirtyPageTable() []DirtyPage {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	var dpt []DirtyPage
	for i := range bp.frames[:bp.used] {
		if f := &bp.frames[i]; f.dirty && f.redoLSN > 0 {
			dpt = append(dpt, DirtyPage{ID: f.id, RedoLSN: f.redoLSN})
		}
	}
	slices.SortFunc(dpt, func(a, b DirtyPage) int { return comparePageIDs(a.ID, b.ID) })
	return dpt
}

// FlushOneDirty writes back the lowest-PageID committed-dirty frame above
// prev and returns its id, releasing the frame lock between calls so the
// checkpointer can interleave with concurrent readers and writers instead
// of stalling them behind one long stop-the-world flush; a writer changes
// page bytes only under the same lock, so no write-back copies a page an
// insert is halfway through. Frames held by an open transaction are skipped
// (no-steal: their bytes may not touch the device), as are frames re-dirtied
// behind the cursor — each stays dirty, and the dirty-page table snapshot
// taken after the incremental pass accounts for both. ok is false when no
// eligible frame remains above prev.
func (bp *BufferPool) FlushOneDirty(prev PageID) (id PageID, ok bool, err error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	var victim *frame
	for i := range bp.frames[:bp.used] {
		f := &bp.frames[i]
		if !f.dirty || f.recLSN == lsnUnlogged || comparePageIDs(prev, f.id) >= 0 {
			continue
		}
		if victim == nil || comparePageIDs(f.id, victim.id) < 0 {
			victim = f
		}
	}
	if victim == nil {
		return PageID{}, false, nil
	}
	if err := bp.writeBackLocked(victim); err != nil {
		return victim.id, true, err
	}
	return victim.id, true, nil
}

// Close makes every committed change durable and is the orderly-shutdown
// counterpart of crash recovery: it forces the log durable even when no
// dirty frame would have demanded it — commits buffered by the group-commit
// policy would otherwise be silently dropped on a clean shutdown — and then
// writes back all committed dirty frames. The pool stays usable; Close is
// idempotent.
func (bp *BufferPool) Close() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.wal != nil {
		if err := bp.wal.Sync(); err != nil {
			return fmt.Errorf("storage: final WAL sync on close: %w", err)
		}
	}
	return bp.flushLocked()
}

// Flush writes every dirty frame back to disk in ascending PageID order,
// leaving the frames resident. The deterministic order — rather than LRU
// recency, which depends on access history and worker interleaving — makes
// crash schedules keyed to "the n-th physical write" reproducible across
// runs. On failure it still attempts the remaining dirty frames and returns
// the first error; a frame whose write-back failed stays dirty, so a later
// Flush retries it rather than silently dropping the modification. Under a
// WAL, a frame dirtied by an open transaction is an error: Flush promises
// durability, and an uncommitted image may not be made durable.
func (bp *BufferPool) Flush() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.flushLocked()
}

func (bp *BufferPool) flushLocked() error {
	var dirty []*frame
	for i := range bp.frames[:bp.used] {
		if f := &bp.frames[i]; f.dirty {
			dirty = append(dirty, f)
		}
	}
	slices.SortFunc(dirty, func(a, b *frame) int { return comparePageIDs(a.id, b.id) })
	var firstErr error
	for _, f := range dirty {
		if err := bp.writeBackLocked(f); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// comparePageIDs orders page ids ascending (file, then page).
func comparePageIDs(a, b PageID) int {
	if c := cmp.Compare(a.File, b.File); c != 0 {
		return c
	}
	return cmp.Compare(a.Page, b.Page)
}

// DropAll flushes and then empties the pool, so the next access to any page
// is a guaranteed miss. Experiments use it to start measurements cold.
// When a write-back fails, frames whose pages were flushed are marked clean
// (they will not be double-written later), nothing is dropped, and the
// error is returned — DropAll after a partial failure is safe to retry.
func (bp *BufferPool) DropAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if err := bp.flushLocked(); err != nil {
		return err
	}
	// The frames keep their page buffers for the pages that refill them.
	for _, pages := range bp.dir {
		clear(pages)
	}
	bp.used = 0
	bp.head, bp.tail = noFrame, noFrame
	return nil
}

// Resident reports whether the page is currently cached.
func (bp *BufferPool) Resident(id PageID) bool {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.residentLocked(id) != nil
}

// Dirty reports whether the page is resident with unflushed modifications.
func (bp *BufferPool) Dirty(id PageID) bool {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f := bp.residentLocked(id)
	return f != nil && f.dirty
}

// Stats returns a snapshot of the pool counters. It does not take the
// frame lock; under concurrent activity the counters are each monotone but
// the snapshot as a whole is not a single linearization point.
func (bp *BufferPool) Stats() PoolStats {
	return PoolStats{
		LogicalReads: bp.logicalReads.Load(),
		Misses:       bp.misses.Load(),
		Evictions:    bp.evictions.Load(),
		ReadRetries:  bp.readRetries.Load(),
		WriteRetries: bp.writeRetries.Load(),
		WALSyncs:     bp.walSyncs.Load(),
	}
}

// ResetStats zeroes the pool counters (resident pages stay resident).
func (bp *BufferPool) ResetStats() {
	bp.logicalReads.Store(0)
	bp.misses.Store(0)
	bp.evictions.Store(0)
	bp.readRetries.Store(0)
	bp.writeRetries.Store(0)
	bp.walSyncs.Store(0)
}
