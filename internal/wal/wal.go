// Package wal implements the write-ahead log behind crash-consistent
// updates: a redo-only, CRC-32C-checksummed, LSN-ordered log persisted
// through its own append-only files of the simulated disk.
//
// The log is a chain of segment files (see segment.go), the first of which
// is the first file of the device (LogFileID). It treats them as an
// append-only page device: log pages are allocated and written exactly once,
// never rewritten, so any prefix of successfully written pages is durable no
// matter where a crash lands. Each page carries the logical stream offset of
// its first payload byte, which lets a reopened log resume after a torn tail
// without rewriting history: records appended after recovery carry offsets
// that supersede the discarded garbage, and the scanner reconciles the two
// on the next recovery.
//
// The redo discipline is physiological — log what a transaction changed,
// not the pages it touched — under no-steal buffering. Transactions mutate
// pages only in the buffer pool, and the only page mutator in the engine is
// the slot append (storage.Page.Insert, reached through HeapFile.Append), so
// a write set is a list of (page, slot, record bytes). The commit path logs
// each as a small RecAppend, followed by a commit record, and the pool
// refuses to write back any frame whose latest changes the log does not yet
// cover (storage.BufferPool's WAL hook). Recovery never needs undo: it
// redoes the changes of committed transactions and discards everything else.
//
// Appends alone cannot survive a torn page write: they rebuild a page only
// on top of a base, and a write-back torn by a crash destroys the one on
// the device. Full page images (RecImage) therefore remain, placed where
// they are needed rather than everywhere. Three invariants carry the
// scheme; the tests break each and catch it.
//
//   - I1 (image first). Between two clean states of a buffer-pool frame —
//     loaded from the device, or written back to it — the lowest-LSN record
//     for its page is a RecImage or an append at slot 0 (which rebuilds the
//     page from nothing). Every later change while the frame stays dirty is
//     an append. The flag lives on the frame, not on the checkpoint: a page
//     that stays dirty across a checkpoint keeps appending, and one the
//     checkpoint flushed starts over with an image. A change the pool
//     cannot describe as appends, and a transaction whose appends to one
//     page would log more bytes than the page, log the image too.
//
//   - I2 (replay per page). Recovery groups the records it must redo by
//     page. A page's redo starts from the latest image (or slot-0 append)
//     among them if there is one, else from the device page, whose checksum
//     it verifies; later appends apply in LSN order, and an append whose
//     slot the page already holds is a no-op. The records to redo are
//     always an LSN-suffix of the page's committed history, so redo is
//     idempotent from any lowered floor — Options.ApplyFloor,
//     IgnoreCheckpoints, a crash during recovery itself. A page rebuilt on
//     the device copy is written once, and only if an append changed it; a
//     page rebuilt on a logged image is written once, unconditionally (the
//     device copy may be torn, and only a write mends it).
//
//   - I3 (no silent repair). An append recovery cannot apply — the device
//     page fails its checksum and no image is among the records, or the
//     slot would leave a gap — is a *RedoError, never a skipped record.
//
//   - I4 (the stamp proves the checkpoint). Truncation is a number, not a
//     sweep: every log page carries the scan floor in force when it was
//     written, and a checkpoint raises the floor on the final page of the
//     sync that completes its end record, never earlier. A checksum-valid
//     page stamped F therefore proves a complete checkpoint whose end
//     record lies at or above F in the stream, so a scan may start at the
//     page holding F and still find a manifest. A crash that tears that
//     final page leaves the previous stamp — and the previous checkpoint —
//     in force. Anything short of proof (no valid stamp, stamp 0, no
//     readable page at the floor) starts the scan at the oldest page the
//     device still holds: under-truncating is always safe. A checkpoint
//     gives back a segment only once it lies wholly below a durable floor,
//     so the oldest segment left always reaches down to the floor in force
//     and a scan from it still finds the checkpoint that floor proves.
package wal

import (
	"encoding/binary"
	"fmt"
	"sync"

	"spatialjoin/internal/fault"
	"spatialjoin/internal/storage"
)

// LSN is a log sequence number: the byte offset of a record in the logical
// log stream. It is an alias of int64 so the storage layer can hold
// recovery LSNs without importing this package.
type LSN = int64

// LogFileID is the device file of the log's first segment: Create claims
// the first file of an empty device. Later segments take whatever file the
// device hands out next, and recovery finds them without a catalog (the
// catalog itself lives in the log) by their segment headers.
const LogFileID storage.FileID = 0

// RecordType tags one log record.
type RecordType uint8

const (
	// RecHeader is the first record of every log: it carries the magic
	// payload that identifies the file as a WAL.
	RecHeader RecordType = iota + 1
	// RecBegin opens a transaction.
	RecBegin
	// RecImage is a full after-image of one page: the base later RecAppend
	// records of the page build on (invariant I1).
	RecImage
	// RecCommit makes a transaction's preceding records redo-eligible.
	RecCommit
	// RecNewCollection registers a collection: name plus the heap file it
	// owns (see EncodeNewCollection).
	RecNewCollection
	// RecNewJoinIndex registers a precomputed join index: the two
	// collection names, the operator name, and the backing pair file.
	RecNewJoinIndex
	// RecAbort closes a transaction without committing it: its preceding
	// records are never redo-eligible. Recovery would discard them anyway
	// (no commit record), but the explicit abort lets the checkpoint's
	// active-transaction table stay exact and gives the transaction layer
	// a release point static analysis can verify.
	RecAbort
	// RecCheckpointBegin marks the LSN a fuzzy checkpoint started at.
	RecCheckpointBegin
	// RecCheckpointEnd carries the checkpoint payload: dirty-page table,
	// active-transaction table, and the manifest — every object's catalog
	// registration, encoded as its RecNewCollection or RecNewJoinIndex
	// payload (see EncodeCheckpoint). It names files; it vouches for no
	// file's contents. A checkpoint counts only when its end record is
	// durable.
	RecCheckpointEnd
	// RecAppend is one record appended to one slot of a page, the common
	// redo unit: [u16 slot][record bytes] (see Record.Append).
	RecAppend

	// recTypeEnd is one past the last record type; the parsers reject
	// anything at or above it as a torn tail.
	recTypeEnd
)

// String implements fmt.Stringer.
func (t RecordType) String() string {
	switch t {
	case RecHeader:
		return "header"
	case RecBegin:
		return "begin"
	case RecImage:
		return "image"
	case RecCommit:
		return "commit"
	case RecNewCollection:
		return "newcollection"
	case RecNewJoinIndex:
		return "newjoinindex"
	case RecAbort:
		return "abort"
	case RecCheckpointBegin:
		return "checkpoint-begin"
	case RecCheckpointEnd:
		return "checkpoint-end"
	case RecAppend:
		return "append"
	default:
		return fmt.Sprintf("RecordType(%d)", uint8(t))
	}
}

// magic is the RecHeader payload and opens every segment header; a device
// with no page carrying it holds no log, and recovery must not touch it.
var magic = []byte("SJWAL1")

// Record is one decoded log record.
type Record struct {
	LSN  LSN
	Type RecordType
	Txn  uint64
	Page storage.PageID // meaningful for RecImage and RecAppend only
	Data []byte         // page image, slot append or catalog payload
}

// appendHeader is the slot number heading a RecAppend payload.
const appendHeader = 2

// Append decodes a RecAppend payload into the slot the record went to and
// the record's bytes (aliasing r.Data).
func (r Record) Append() (slot int, rec []byte, err error) {
	if r.Type != RecAppend || len(r.Data) < appendHeader {
		return 0, nil, fmt.Errorf("wal: %v record of %d bytes at LSN %d is not a slot append", r.Type, len(r.Data), r.LSN)
	}
	return int(binary.LittleEndian.Uint16(r.Data)), r.Data[appendHeader:], nil
}

// Page layout: [u32 used][u64 startLSN][u32 firstRec][u64 floor][payload ...].
// used is the number of payload bytes; startLSN is the logical stream offset
// of the first payload byte; firstRec is the payload offset of the first
// record that *begins* in this page (noFirstRec when every byte continues a
// record started earlier); floor is the scan floor in force when the page
// was written (invariant I4). A page with used == 0 is an unwritten
// allocation and contributes nothing to the stream.
//
// firstRec exists for log truncation: pages wholly below the floor are dead,
// and the first live page may open mid-record — its head lies in the dead
// pages. The scanner re-synchronizes at startLSN+firstRec, the first byte
// that starts a parseable record.
const (
	pageHeader = 24
	noFirstRec = ^uint32(0)
)

// header is a log page's decoded header.
type header struct {
	used  int
	start LSN
	first uint32
	floor LSN
}

func parseHeader(buf []byte) header {
	le := binary.LittleEndian
	return header{
		used:  int(le.Uint32(buf[0:])),
		start: LSN(le.Uint64(buf[4:])),
		first: le.Uint32(buf[12:]),
		floor: LSN(le.Uint64(buf[16:])),
	}
}

// live reports whether a checksum-valid page of pageSize bytes with this
// header carries stream bytes: it was written, and its length is possible.
func (h header) live(pageSize int) bool { return h.used > 0 && h.used <= pageSize-pageHeader }

// pageEnd is one entry of the in-memory table truncation counts from: a
// written log page and the stream offset its payload ends at.
type pageEnd struct {
	file storage.FileID
	page int32
	end  LSN
}

// Record layout within the stream:
// [u64 lsn][u8 type][u64 txn][i32 file][i32 page][u32 dataLen][data][u32 crc]
// where crc is the CRC-32C (the shared page codec) of every preceding byte
// of the record.
const (
	recHeaderSize = 8 + 1 + 8 + 4 + 4 + 4
	recTrailer    = 4
	// maxDataLen bounds a record payload during parsing; anything larger is
	// treated as a torn tail rather than trusted.
	maxDataLen = 1 << 24
)

// Stats counts the log's activity. PageWrites are the log pages appended to
// the device (they also appear in the device's DiskStats.Writes, keeping
// the I/O accounting exact); PaddingBytes is the page space wasted by the
// append-only discipline (each sync seals its final partial page).
type Stats struct {
	Records int64
	// Images and Appends split the redo records: full page images (first
	// touch of a clean frame) and slot appends (everything after).
	Images       int64
	Appends      int64
	Commits      int64
	Aborts       int64
	Syncs        int64
	PageWrites   int64
	BytesLogged  int64
	PaddingBytes int64
	// Checkpoints counts durable checkpoint end records;
	// TruncatedPages counts log pages that fell wholly below the scan floor;
	// SegmentsDropped counts the segments given back to the device for it.
	Checkpoints     int64
	TruncatedPages  int64
	SegmentsDropped int64
}

// Log is the append-only write-ahead log. It is safe for concurrent use:
// the buffer pool calls Sync and DurableLSN from eviction paths while the
// update path appends.
type Log struct {
	mu       sync.Mutex
	dev      storage.Device
	pageSize int
	group    int // commits per sync; <= 1 means sync every commit

	tail      []byte    // appended records not yet written to the device
	tailStart LSN       // stream offset of tail[0]
	durable   LSN       // everything below this offset is on the device
	pending   int       // commits appended since the last sync
	bounds    []LSN     // start LSNs of buffered records, for page firstRec
	floor     LSN       // scan floor stamped on every page written (invariant I4)
	segs      []segment // the segments on the device, oldest first; the log appends to the last
	live      []pageEnd // the written pages TruncateBelow has not yet reclaimed, in log order
	retain    LSN       // a checkpoint raises the floor no higher than this pin
	page      []byte    // scratch log page syncStamped assembles in

	stats    Stats
	observer func(batchCommits, pagesWritten int)
}

// Create makes a fresh log on dev, which must be empty: the log's first
// segment claims the device's first file. groupCommit is the number of
// commits batched per sync (values <= 1 sync on every commit).
func Create(dev storage.Device, groupCommit int) (*Log, error) {
	id := dev.CreateFile()
	if id != LogFileID {
		return nil, fmt.Errorf("wal: log must own file %d of the device, got %d (device not empty)", LogFileID, id)
	}
	l := newLog(dev, groupCommit)
	l.segs = []segment{{file: id}}
	l.append(Record{Type: RecHeader, Data: magic})
	if err := l.Sync(); err != nil {
		return nil, fmt.Errorf("wal: writing log header: %w", err)
	}
	return l, nil
}

func newLog(dev storage.Device, groupCommit int) *Log {
	if groupCommit < 1 {
		groupCommit = 1
	}
	return &Log{dev: dev, pageSize: dev.PageSize(), group: groupCommit, page: make([]byte, dev.PageSize())}
}

// Stats returns a snapshot of the log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// SetObserver registers a callback invoked after each successful sync with
// the number of commits the sync batched and the log pages it wrote — the
// bridge the metrics layer uses to feed a group-commit batch-size
// histogram. The callback runs with the log lock held, so it must be cheap
// and must not call back into the log.
func (l *Log) SetObserver(fn func(batchCommits, pagesWritten int)) {
	l.mu.Lock()
	l.observer = fn
	l.mu.Unlock()
}

// DurableLSN returns the stream offset below which every record is on the
// device. It implements the storage.WAL hook.
func (l *Log) DurableLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// append encodes rec at the current end of the stream and returns its LSN.
// The record stays buffered until the next Sync.
func (l *Log) append(rec Record) LSN {
	return l.appendParts(rec.Type, rec.Txn, rec.Page, nil, rec.Data)
}

// appendParts encodes one record straight into the buffered tail — its
// payload is prefix followed by data, so a slot append needs no assembled
// copy — and checksums it where it lies.
func (l *Log) appendParts(typ RecordType, txn uint64, page storage.PageID, prefix, data []byte) LSN {
	start := len(l.tail)
	lsn := l.tailStart + LSN(start)
	le := binary.LittleEndian
	l.tail = le.AppendUint64(l.tail, uint64(lsn))
	l.tail = append(l.tail, byte(typ))
	l.tail = le.AppendUint64(l.tail, txn)
	l.tail = le.AppendUint32(l.tail, uint32(page.File))
	l.tail = le.AppendUint32(l.tail, uint32(page.Page))
	l.tail = le.AppendUint32(l.tail, uint32(len(prefix)+len(data)))
	l.tail = append(l.tail, prefix...)
	l.tail = append(l.tail, data...)
	l.tail = le.AppendUint32(l.tail, storage.PageChecksum(l.tail[start:]))
	l.bounds = append(l.bounds, lsn)
	l.stats.Records++
	l.stats.BytesLogged += int64(len(l.tail) - start)
	return lsn
}

// Begin appends a begin record for txn.
func (l *Log) Begin(txn uint64) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.append(Record{Type: RecBegin, Txn: txn})
}

// AppendImage appends a full after-image of page id for txn.
func (l *Log) AppendImage(txn uint64, id storage.PageID, image []byte) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Images++
	return l.append(Record{Type: RecImage, Txn: txn, Page: id, Data: image})
}

// AppendPageWrite logs what txn did to one page of its write set: the
// page's image where the pool demands one (invariant I1) or where the
// appends would log more bytes than the page does, else one RecAppend per
// appended slot.
func (l *Log) AppendPageWrite(txn uint64, w storage.PageWrite) error {
	const framing = recHeaderSize + recTrailer
	image := w.Image
	if !image {
		logged := 0
		for slot := w.First; slot < w.First+w.N; slot++ {
			rec, err := w.Page.Record(slot)
			if err != nil {
				return fmt.Errorf("wal: logging write set of %v: %w", w.ID, err)
			}
			logged += framing + appendHeader + len(rec)
		}
		image = logged > framing+w.Page.Size()
	}
	if image {
		l.AppendImage(txn, w.ID, w.Page.Bytes())
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for slot := w.First; slot < w.First+w.N; slot++ {
		rec, err := w.Page.Record(slot)
		if err != nil {
			return fmt.Errorf("wal: logging write set of %v: %w", w.ID, err)
		}
		var hdr [appendHeader]byte
		binary.LittleEndian.PutUint16(hdr[:], uint16(slot))
		l.stats.Appends++
		l.appendParts(RecAppend, txn, w.ID, hdr[:], rec)
	}
	return nil
}

// AppendCatalog appends a catalog record (RecNewCollection or
// RecNewJoinIndex) for txn.
func (l *Log) AppendCatalog(txn uint64, typ RecordType, payload []byte) (LSN, error) {
	if typ != RecNewCollection && typ != RecNewJoinIndex {
		return 0, fmt.Errorf("wal: %v is not a catalog record type", typ)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.append(Record{Type: typ, Txn: txn, Data: payload}), nil
}

// Commit appends the commit record for txn and, per the group-commit
// policy, forces the log durable. The returned LSN covers every record of
// the transaction: once the log is durable past it, the whole transaction
// is redo-eligible.
func (l *Log) Commit(txn uint64) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn := l.append(Record{Type: RecCommit, Txn: txn})
	l.stats.Commits++
	l.pending++
	if l.pending >= l.group {
		if err := l.syncLocked(); err != nil {
			return lsn, err
		}
	}
	return lsn, nil
}

// Abort appends an abort record for txn, closing it without committing:
// none of its records will ever be redo-eligible. The transaction layer
// calls it on every failed update path so a checkpoint's active-transaction
// table holds only transactions that may still commit.
func (l *Log) Abort(txn uint64) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Aborts++
	return l.append(Record{Type: RecAbort, Txn: txn})
}

// Close forces every appended record durable — the orderly-shutdown sync
// that keeps group-commit-buffered transactions from being dropped. The
// log stays usable; Close is idempotent.
func (l *Log) Close() error { return l.Sync() }

// Sync forces every appended record onto the device. It implements the
// storage.WAL hook the buffer pool calls before writing back a dirty frame.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

// syncLocked writes the buffered tail under the scan floor in force.
func (l *Log) syncLocked() error { return l.syncStamped(l.floor, true) }

// syncStamped writes the buffered tail to freshly allocated log pages in
// ascending order and, once every page is down, makes final the scan floor
// in force. Only the last page carries final — the earlier ones carry the
// floor they were written under — so a raised floor reaches the device
// exactly when the record that justifies it is complete (invariant I4).
// Pages are never rewritten: the remainder of the final partial page is
// sealed as padding, so a crash can tear only the page being written, and
// every earlier page stays durable. With roll, a full segment hands over to
// a fresh one; a follower's log, whose files mirror the primary's, never
// rolls.
func (l *Log) syncStamped(final LSN, roll bool) error {
	if len(l.tail) == 0 {
		l.pending = 0
		return nil
	}
	fault.CrashPoint("wal.sync")
	l.stats.Syncs++
	batch := l.pending
	pages := 0
	// written and consumed count the tail bytes and record boundaries the
	// device holds; both are dropped from the buffers on every way out, so a
	// failed sync leaves exactly the unwritten remainder to retry. A drained
	// buffer keeps its storage for the next batch.
	written, consumed := 0, 0
	defer func() {
		l.tail = l.tail[:copy(l.tail, l.tail[written:])]
		l.bounds = l.bounds[:copy(l.bounds, l.bounds[consumed:])]
	}()
	for written < len(l.tail) {
		id, err := l.allocPage(roll)
		if err != nil {
			return fmt.Errorf("wal: extending log: %w", err)
		}
		off := payloadAt(id.Page)
		room := l.pageSize - off
		chunk := l.tail[written:]
		stamp := final
		if len(chunk) > room {
			chunk, stamp = chunk[:room], l.floor
		}
		n := len(chunk)
		// The first buffered record boundary inside this page's payload
		// window, so a scanner can re-synchronize here after truncation.
		// Boundaries are consumed only after the page write succeeds: a
		// failed write is retried onto a fresh page, which must carry the
		// same boundary.
		first := noFirstRec
		next := consumed
		chunkEnd := l.tailStart + LSN(n)
		for next < len(l.bounds) && l.bounds[next] < chunkEnd {
			if first == noFirstRec {
				first = uint32(l.bounds[next] - l.tailStart)
			}
			next++
		}
		buf := l.page
		binary.LittleEndian.PutUint32(buf[0:], uint32(n))
		binary.LittleEndian.PutUint64(buf[4:], uint64(l.tailStart))
		binary.LittleEndian.PutUint32(buf[12:], first)
		binary.LittleEndian.PutUint64(buf[16:], uint64(stamp))
		if id.Page == 0 {
			putSegHeader(buf, l.segs[len(l.segs)-1])
		}
		clear(buf[off+copy(buf[off:], chunk):])
		if err := l.dev.WritePage(id, buf); err != nil {
			// The failed page stays allocated with used == 0; the scanner
			// skips it and a retried sync allocates a fresh successor. A
			// fresh segment whose header never landed is given back whole,
			// so the retry opens another one with its header on page 0.
			if id.Page == 0 && len(l.segs) > 1 {
				l.segs = l.segs[:len(l.segs)-1]
				// Nothing reads an unwritten segment; a failed drop leaks one zero page.
				_ = l.dev.DropFile(id.File)
			}
			return fmt.Errorf("wal: log append: %w", err)
		}
		consumed = next
		written += n
		l.tailStart += LSN(n)
		l.live = append(l.live, pageEnd{file: id.File, page: id.Page, end: l.tailStart})
		l.stats.PageWrites++
		pages++
		fault.CrashPoint("wal.sync.page")
		if n < room {
			l.stats.PaddingBytes += int64(room - n)
		}
	}
	l.floor = final
	l.durable = l.tailStart
	l.pending = 0
	if l.observer != nil {
		l.observer(batch, pages)
	}
	fault.CrashPoint("wal.synced")
	return nil
}

// allocPage allocates the next log page: in the newest segment, or — when
// that one is full and roll is set — on page 0 of a fresh one.
func (l *Log) allocPage(roll bool) (storage.PageID, error) {
	cur := l.segs[len(l.segs)-1]
	if roll && l.dev.NumPages(cur.file) >= segPages {
		cur = segment{file: l.dev.CreateFile(), ord: cur.ord + 1, prev: cur.file}
		l.segs = append(l.segs, cur)
	}
	return l.dev.AllocPage(cur.file)
}
