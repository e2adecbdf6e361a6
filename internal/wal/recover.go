package wal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"spatialjoin/internal/storage"
)

// RecoveryStats summarizes one recovery pass.
type RecoveryStats struct {
	RecordsScanned  int64 // complete, checksum-valid records found in the log
	RecordsReplayed int64 // page records (images, appends) of committed transactions redone
	RecordsSkipped  int64 // committed page records the checkpoint proved already on the device
	PagesRestored   int64 // distinct pages written during replay
	TxnsCommitted   int64 // transactions with a durable commit record
	TxnsAborted     int64 // transactions closed by an explicit abort record
	TxnsDiscarded   int64 // transactions begun but never durably finished
	TornTailBytes   int64 // stream bytes after the last complete record
	TornPages       int64 // log pages whose checksum did not verify
	BaseLSN         LSN   // stream offset recovery scanned from (>0 after truncation)
	LogPagesRead    int64 // log pages read to find the head and assemble the stream
	ProbePagesRead  int64 // other pages read to tell the newest log segment from the files above it
	HeadPage        int64 // first log page the scan read, in log order; pages below it are dead
	SegmentsDropped int64 // segments a crash left wholly below the floor, given back now
	CheckpointLSN   LSN   // begin LSN of the checkpoint recovery bounded redo by; 0 = none
	// IndexRebuildsSkipped is always 0: every Reopen rebuilds each R-tree
	// from its heap. The field stays only for the benchmark harness, which
	// still reports it.
	IndexRebuildsSkipped int64
	NextTxn              uint64
	// NextApplyFloor is the safe Options.ApplyFloor for the *next*
	// recovery of this device once everything scanned here has been
	// applied: the stream end, lowered to the begin LSN of the oldest
	// transaction still open at the end of the scan (its changes are not
	// applied yet and must be replayed once its commit arrives). Redo is
	// idempotent from any floor — an image restarts its page, an append
	// whose slot is present is a no-op (invariant I2) — so the lowering
	// only ever re-replays.
	NextApplyFloor LSN
}

// ErrNotALog reports that no file of the device is a log segment, or that
// the log does not begin with a WAL header; recovery refuses to touch such
// a device.
var ErrNotALog = errors.New("wal: device holds no log")

// RedoError reports a committed slot append recovery could not apply
// (invariant I3): the page it builds on is unreadable and no image of it is
// among the records to redo, or the page holds fewer records than the
// append assumes. Recovery stops rather than leave a page silently short.
type RedoError struct {
	Page storage.PageID
	LSN  LSN // the append that could not be applied
	Err  error
}

// Error implements the error interface.
func (e *RedoError) Error() string {
	return fmt.Sprintf("wal: cannot redo append at LSN %d onto %v: %v", e.LSN, e.Page, e.Err)
}

// Unwrap exposes the cause, so a checksum failure of the base page still
// classifies with storage.IsChecksum.
func (e *RedoError) Unwrap() error { return e.Err }

// Options configures RecoverWith.
type Options struct {
	// GroupCommit is the recovered log's commits-per-sync policy.
	GroupCommit int
	// IgnoreCheckpoints makes recovery replay every committed page record from
	// the scanned base, as if no checkpoint existed. Harnesses use it to
	// assert that bounded and full recovery reconstruct identical state.
	// It cannot resurrect records a checkpoint already truncated away.
	IgnoreCheckpoints bool
	// ApplyFloor, when positive, replaces checkpoint-bounded redo with an
	// explicit cut: committed page records below the floor are skipped
	// unconditionally and everything at or above it is replayed
	// unconditionally, never consulting the dirty-page table (per-page redo
	// is idempotent, so a floor lower than necessary costs work, never
	// correctness; one higher than the device's true state surfaces as a
	// *RedoError, not as a silently short page). Checkpoint
	// decoding (manifest, transaction table) is unaffected. Replication
	// followers need this because a shipped checkpoint's DPT describes the
	// *primary's* flush state — bounding a follower's redo by it would
	// skip records the follower never applied. A follower that has applied
	// everything below LSN n recovers with ApplyFloor = n; one whose
	// device state is unknown (fresh seed, delta resync) uses ApplyFloor = 1
	// to replay the whole surviving stream.
	ApplyFloor LSN
}

// Result is everything RecoverWith hands back to the catalog layer.
type Result struct {
	Log *Log
	// Catalog holds every registration to re-create, in order: the
	// checkpoint's manifest, then the committed RecNewCollection and
	// RecNewJoinIndex records of the scanned stream, in LSN order. An object
	// registered before a non-truncating checkpoint appears twice; the
	// first wins.
	Catalog []Record
	// Checkpoint is the last complete checkpoint, nil when none was found
	// (or checkpoints were ignored).
	Checkpoint *Checkpoint
	Stats      RecoveryStats
}

// RecoverWith scans the log on dev and redoes the committed page changes
// the device is missing, page by page (invariant I2 of the package
// comment). With a checkpoint in the log, redo is bounded: a record below
// the checkpoint is redone only when the dirty-page table says its page had
// not been flushed, or when a straddling transaction's begin LSN reaches
// down to it; everything else is counted as skipped.
//
// Torn tails are discarded, not erased: the log never rewrites a durable
// page, so the garbage bytes stay on the device and are superseded by the
// stream offsets of post-recovery appends (see the package comment).
func RecoverWith(dev storage.Device, opts Options) (*Result, error) {
	return recoverFrom(dev, opts, findHead(dev))
}

// recoverFrom is RecoverWith over a scan that starts at head.
func recoverFrom(dev storage.Device, opts Options, head logHead) (*Result, error) {
	res := &Result{}
	stats := &res.Stats
	sc, err := scanStream(dev, &head)
	stats.LogPagesRead, stats.ProbePagesRead = head.reads, head.probes
	if len(head.segs) > 0 {
		stats.HeadPage = int64(head.segs[0].ord*segPages) + int64(head.page)
	}
	if err != nil {
		return res, err
	}
	stats.TornPages = sc.torn
	stats.BaseLSN = sc.base
	base, stream := sc.base, sc.stream
	records, consumed := parseStream(base, stream)
	stats.RecordsScanned = int64(len(records))
	stats.TornTailBytes = int64(len(stream)) - consumed
	if len(records) == 0 {
		return res, ErrNotALog
	}
	if base == 0 && (records[0].Type != RecHeader || string(records[0].Data) != string(magic)) {
		return res, ErrNotALog
	}

	committed := make(map[uint64]bool)
	begun := make(map[uint64]LSN)
	aborted := make(map[uint64]bool)
	var maxTxn uint64
	for _, r := range records {
		if r.Txn > maxTxn {
			maxTxn = r.Txn
		}
		switch r.Type {
		case RecBegin:
			if _, dup := begun[r.Txn]; !dup {
				begun[r.Txn] = r.LSN
			}
		case RecCommit:
			committed[r.Txn] = true
		case RecAbort:
			aborted[r.Txn] = true
		}
	}
	for txn := range begun {
		switch {
		case committed[txn]:
			stats.TxnsCommitted++
		case aborted[txn]:
			stats.TxnsAborted++
		default:
			stats.TxnsDiscarded++
		}
	}
	stats.NextTxn = maxTxn + 1

	if !opts.IgnoreCheckpoints {
		for i := len(records) - 1; i >= 0; i-- {
			if records[i].Type != RecCheckpointEnd {
				continue
			}
			cp, err := DecodeCheckpoint(records[i].Data)
			if err != nil {
				// A checkpoint that does not decode is treated as absent;
				// an older one (or none) bounds redo instead.
				continue
			}
			res.Checkpoint = &cp
			break
		}
	}
	// The safe floor for the next bounded re-recovery: the stream end,
	// lowered to the oldest still-open transaction's begin (images of a
	// transaction that commits later must be replayed then). Checkpoint
	// Active entries cover straddlers whose begin record was truncated.
	floor := base + consumed
	for txn, beginLSN := range begun {
		if !committed[txn] && !aborted[txn] && beginLSN < floor {
			floor = beginLSN
		}
	}
	if cp := res.Checkpoint; cp != nil {
		for _, a := range cp.Active {
			if !committed[a.Txn] && !aborted[a.Txn] && a.BeginLSN < floor {
				floor = a.BeginLSN
			}
		}
	}
	stats.NextApplyFloor = floor

	replayStart := LSN(0)
	dpt := make(map[storage.PageID]LSN)
	if cp := res.Checkpoint; cp != nil {
		res.Catalog = append(res.Catalog, cp.Manifest...)
		stats.CheckpointLSN = cp.BeginLSN
		if cp.NextTxn > stats.NextTxn {
			stats.NextTxn = cp.NextTxn
		}
		replayStart = cp.replayStart()
		for _, d := range cp.DPT {
			dpt[d.Page] = d.RecLSN
		}
	}

	// Sort the records to redo by page, keeping LSN order within a page.
	// The skip rules cut each page's history at a single LSN, so what a page
	// keeps is a suffix of its committed records.
	redo := make(map[storage.PageID][]Record)
	var pages []storage.PageID
	for _, r := range records {
		if !committed[r.Txn] {
			continue
		}
		switch r.Type {
		case RecImage, RecAppend:
			if opts.ApplyFloor > 0 {
				if r.LSN < opts.ApplyFloor {
					// The caller vouches the device holds this change.
					stats.RecordsSkipped++
					continue
				}
			} else if res.Checkpoint != nil && r.LSN < replayStart {
				if floor, inDPT := dpt[r.Page]; !inDPT || r.LSN < floor {
					// The checkpoint flushed this page past r.LSN: the
					// device already holds content at least this new.
					stats.RecordsSkipped++
					continue
				}
			}
			stats.RecordsReplayed++
			if _, seen := redo[r.Page]; !seen {
				pages = append(pages, r.Page)
			}
			redo[r.Page] = append(redo[r.Page], r)
		case RecNewCollection, RecNewJoinIndex:
			res.Catalog = append(res.Catalog, r)
		}
	}
	// Ascending page order, like the pool's flush: a crash schedule keyed to
	// the n-th write of a recovery lands on the same page every run.
	slices.SortFunc(pages, func(a, b storage.PageID) int {
		return cmp.Or(cmp.Compare(a.File, b.File), cmp.Compare(a.Page, b.Page))
	})
	buf := make([]byte, dev.PageSize())
	for _, id := range pages {
		wrote, err := redoPage(dev, id, redo[id], buf)
		if err != nil {
			return res, err
		}
		if wrote {
			stats.PagesRestored++
		}
	}

	l := newLog(dev, opts.GroupCommit)
	l.tailStart = base + consumed
	l.durable = base + consumed
	l.floor = head.floor
	l.segs = head.segs
	l.live = sc.live
	// Segments a crash stranded below the head lie wholly below a proven
	// floor; nothing reads them again.
	for _, s := range head.stale {
		if dropSegment(dev, s.file) == nil {
			stats.SegmentsDropped++
		}
	}
	l.stats.SegmentsDropped = stats.SegmentsDropped
	res.Log = l
	return res, nil
}

// recoveryRetry is the policy every raw device read of recovery runs under
// (storage.ReadVerified): a transient fault costs a retry, as it would
// through the buffer pool, not the recovery.
var recoveryRetry = storage.DefaultRetryPolicy()

// readLogPage reads the log page at a, verified, into a buffer the caller
// owns. a is file<<32 | page (logAddr), so the first segment's pages are
// their page numbers.
func readLogPage(dev storage.Device, a int) ([]byte, error) {
	buf := make([]byte, dev.PageSize())
	_, err := storage.ReadVerified(dev, storage.PageID{File: storage.FileID(a >> 32), Page: int32(a)}, buf, recoveryRetry)
	return buf, err
}

// logAddr is the address readLogPage takes for page id.
func logAddr(id storage.PageID) int { return int(id.File)<<32 | int(id.Page) }

// logHead is where a scan of the log starts, and what finding that cost. A
// zero logHead, which no search produced, scans from the oldest page.
type logHead struct {
	segs   []segment // the segments the scan reads, oldest first
	page   int32     // first page of segs[0] the scan reads; every log page below it is dead
	floor  LSN       // the stamp that chose page; 0 when the scan starts at the oldest page
	stale  []segment // segments wholly below the head a crash kept from being dropped
	kept   keptPages // log pages as the search read them, for the scan to take
	reads  int64     // log pages read so far, the search's and then the scan's
	probes int64     // pages of other files the search for the newest segment read
}

// keptPages holds verified log pages, so a scan need not read again what
// the head search already did.
type keptPages map[storage.PageID][]byte

// take hands over page id if it was kept, nil if not.
func (k keptPages) take(id storage.PageID) []byte {
	buf := k[id]
	delete(k, id)
	return buf
}

// findHead locates the live head of the log without reading a dead page:
// the last valid page's stamp is the scan floor F (invariant I4 — a complete
// checkpoint lies at or above it), and the head is the last page at or below
// that one that starts at or below F, found by walking back through the
// segments. No later page starts at or below F, so none can rewind the
// stream below the head, and a scan from the head assembles exactly the
// bytes at and above F that a scan from the oldest page would. The pages
// walked over are kept for that scan, so each live page is read once; only
// the head segment's page 0, whose header numbers the chain, may cost one
// read more. Any doubt — no valid page, stamp 0, an unreadable page on the
// way, a head that does not open a record at or below F — starts the scan at
// the oldest page: under-truncating is always safe.
func findHead(dev storage.Device) logHead {
	h := logHead{kept: make(keptPages)}
	segs, last := h.chain(dev)
	h.segs = segs
	seen := false
walk:
	for i := len(segs) - 1; i >= 0; i-- {
		p := int32(dev.NumPages(segs[i].file) - 1)
		if i == len(segs)-1 {
			p = last
		}
		for ; p >= 0; p-- {
			id := storage.PageID{File: segs[i].file, Page: p}
			buf, err := h.read(dev, id)
			hd := parseHeader(buf)
			if err != nil || !hd.live(dev.PageSize()) || payload(buf, p, hd) == nil {
				if seen && err != nil && !storage.IsChecksum(err) {
					break walk // below the last valid page, and no telling what it held
				}
				continue // torn, failed or in flight: the scan decides what to report
			}
			if !seen {
				seen, h.floor = true, hd.floor
			}
			h.kept[id] = buf
			if h.floor <= 0 {
				break walk
			}
			if hd.start > h.floor {
				continue
			}
			if hd.first == noFirstRec || hd.start+LSN(hd.first) > h.floor {
				break walk // F is not a record boundary of this page: trust nothing
			}
			h.segs, h.stale, h.page = segs[i:], segs[:i], p
			return h
		}
	}
	h.floor = 0
	return h
}

// scan is the logical stream scanStream assembled and the pages it came
// from.
type scan struct {
	base   LSN       // stream offset of stream[0]
	stream []byte    // the record stream from base on
	torn   int64     // pages whose checksum or length did not verify
	live   []pageEnd // each live page read and where its payload ends, in log order
}

// scanStream reads the log pages from head on, segment by segment, in order,
// and assembles the logical record stream. In an untruncated log the
// stream's base is 0; after checkpoint truncation the head page's firstRec
// offset re-synchronizes the scan at a record boundary. Pages that never
// made it to the device (zero-filled allocations) or arrive corrupted are
// skipped and reported; a page whose startLSN rewinds below the assembled
// length marks a post-recovery resume, so the superseded garbage is cut off
// before its payload is appended.
func scanStream(dev storage.Device, head *logHead) (scan, error) {
	if head.kept == nil {
		head.kept = make(keptPages)
		head.segs, _ = head.chain(dev)
	}
	pageSize := dev.PageSize()
	sc := scan{base: -1}
	for i, s := range head.segs {
		p := int32(0)
		if i == 0 {
			p = head.page
		}
		for n := int32(dev.NumPages(s.file)); p < n; p++ {
			id := storage.PageID{File: s.file, Page: p}
			buf := head.kept.take(id)
			if buf == nil {
				head.reads++
				var err error
				if buf, err = readLogPage(dev, logAddr(id)); err != nil {
					if storage.IsChecksum(err) {
						// A page torn by the crash; everything it held is past the
						// last durable sync, so skipping it discards only tail bytes.
						sc.torn++
						continue
					}
					return sc, fmt.Errorf("wal: reading log page %v: %w", id, err)
				}
			}
			hd := parseHeader(buf)
			if hd.used == 0 {
				continue // allocated but never written
			}
			data := payload(buf, p, hd)
			if !hd.live(pageSize) || data == nil {
				sc.torn++
				continue
			}
			sc.live = append(sc.live, pageEnd{file: s.file, page: p, end: hd.start + LSN(hd.used)})
			if sc.base < 0 {
				// First live page: every byte before its first record boundary
				// is the tail of a record whose head lies in the dead pages
				// below — only parseable bytes join the stream.
				if hd.first == noFirstRec || int(hd.first) >= hd.used {
					continue
				}
				sc.base = hd.start + LSN(hd.first)
				sc.stream = append(sc.stream, data[hd.first:]...)
				continue
			}
			end := sc.base + LSN(len(sc.stream))
			switch {
			case hd.start < sc.base:
				// Below the resync point: stale garbage; trust nothing after.
				return sc, nil
			case hd.start < end:
				sc.stream = sc.stream[:hd.start-sc.base]
			case hd.start > end:
				// A gap means the pages between were lost wholesale; nothing
				// after them can be trusted to be contiguous.
				return sc, nil
			}
			sc.stream = append(sc.stream, data...)
		}
	}
	if sc.base < 0 {
		sc.base = 0
	}
	return sc, nil
}

// parseStream decodes records until the stream ends or turns invalid,
// returning the records and the number of stream bytes consumed by
// complete, checksum-valid records. Record LSNs are absolute: stream byte i
// sits at LSN base+i. Everything past the consumed point is a torn tail.
func parseStream(base LSN, stream []byte) ([]Record, int64) {
	var records []Record
	off := 0
	for off+recHeaderSize+recTrailer <= len(stream) {
		hdr := stream[off:]
		lsn := LSN(binary.LittleEndian.Uint64(hdr[0:]))
		typ := RecordType(hdr[8])
		dataLen := int(binary.LittleEndian.Uint32(hdr[25:]))
		if lsn != base+LSN(off) || typ < RecHeader || typ >= recTypeEnd || dataLen > maxDataLen {
			break
		}
		end := off + recHeaderSize + dataLen + recTrailer
		if end > len(stream) {
			break
		}
		body := stream[off : end-recTrailer]
		want := binary.LittleEndian.Uint32(stream[end-recTrailer:])
		if storage.PageChecksum(body) != want {
			break
		}
		data := make([]byte, dataLen)
		copy(data, stream[off+recHeaderSize:end-recTrailer])
		records = append(records, Record{
			LSN:  lsn,
			Type: typ,
			Txn:  binary.LittleEndian.Uint64(hdr[9:]),
			Page: storage.PageID{
				File: storage.FileID(binary.LittleEndian.Uint32(hdr[17:])),
				Page: int32(binary.LittleEndian.Uint32(hdr[21:])),
			},
			Data: data,
		})
		off = end
	}
	return records, int64(off)
}

// redoPage rebuilds one page in buf from its records to redo — an
// LSN-ordered suffix of the page's committed history — and writes it to the
// device, reporting whether it did. The base is the latest image or slot-0
// append among the records, which makes everything before it moot, else the
// device page; the appends after the base then apply in order. A page
// rebuilt on the device copy is written only if an append changed it.
func redoPage(dev storage.Device, id storage.PageID, records []Record, buf []byte) (bool, error) {
	for i := len(records) - 1; i > 0; i-- {
		if startsPage(records[i]) {
			records = records[i:]
			break
		}
	}
	// A page rebuilt from the log is written whatever the device holds: its
	// copy may be torn, and only a write mends it.
	changed := startsPage(records[0])
	switch {
	case !changed:
		if _, err := storage.ReadVerified(dev, id, buf, recoveryRetry); err != nil {
			return false, &RedoError{Page: id, LSN: records[0].LSN, Err: err}
		}
	case records[0].Type == RecImage:
		if len(records[0].Data) != len(buf) {
			return false, fmt.Errorf("wal: image for %v has %d bytes, device page size is %d",
				id, len(records[0].Data), len(buf))
		}
		copy(buf, records[0].Data)
		records = records[1:]
	}
	for _, r := range records {
		slot, rec, err := r.Append()
		if err != nil {
			return false, err
		}
		applied, err := storage.RedoAppend(buf, slot, rec)
		if err != nil {
			return false, &RedoError{Page: id, LSN: r.LSN, Err: err}
		}
		changed = changed || applied
	}
	if !changed {
		return false, nil
	}
	if err := materialize(dev, id); err != nil {
		return false, err
	}
	if err := dev.WritePage(id, buf); err != nil {
		return false, fmt.Errorf("wal: replaying onto %v: %w", id, err)
	}
	return true, nil
}

// startsPage reports whether redo of a page can start from the record with
// no older state: a full image, or an append at slot 0, which
// storage.RedoAppend applies to a page it first re-initializes.
func startsPage(r Record) bool {
	if r.Type == RecImage {
		return true
	}
	slot, _, err := r.Append()
	return err == nil && slot == 0
}

// materialize makes sure the device holds the page replay is about to
// write, creating the file and allocating pages as needed: the crash may
// have landed before the first write-back ever materialized them, and a
// replica's device starts with none of the primary's files.
func materialize(dev storage.Device, id storage.PageID) error {
	for int(id.Page) >= dev.NumPages(id.File) {
		if _, err := dev.AllocPage(id.File); err == nil {
			continue
		}
		// AllocPage rejects unknown files; file IDs are dense, so creating
		// files in order eventually materializes the target. Overshooting
		// it means the failure had another cause.
		if f := dev.CreateFile(); f > id.File {
			return fmt.Errorf("wal: cannot materialize file %d for replay of %v", id.File, id)
		}
	}
	return nil
}
