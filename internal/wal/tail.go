// Log tailing and raw-record shipping, the WAL half of replication: a
// TailReader turns the primary's append-once log pages back into the
// logical record stream from any LSN, and AppendRaw grafts shipped stream
// bytes onto a follower's log as if they had been appended locally. Both
// ends validate every record's CRC, so a corrupt segment is rejected
// wholesale rather than entering either stream.

package wal

import (
	"errors"
	"fmt"

	"spatialjoin/internal/storage"
)

// ErrTruncatedAway reports that a tail read could not resume at the
// requested LSN: the log's live pages begin above it (a checkpoint
// truncated the history the reader wanted) or continuity to it was lost.
// No amount of retrying brings the bytes back — a replication follower
// receiving it must fall back to a snapshot-delta resync.
var ErrTruncatedAway = errors.New("wal: requested LSN truncated from the log")

// TailReader streams the logical record stream of a live log straight from
// its device pages, starting at a caller-chosen LSN. It leans on the log's
// append-once discipline: a page that checksums is complete and immutable,
// so reading concurrently with the appender can race only with pages that
// are not yet durable — the reader revisits those on the next call instead
// of trusting them. Next emits only complete, CRC-valid records, which is
// exactly what Log.AppendRaw on another device accepts.
//
// A TailReader is not safe for concurrent use; each replication stream
// owns its own.
type TailReader struct {
	dev  storage.Device
	kept keptPages      // pages read ahead of the scan — the head search's, a successor's first — for it to take
	seg  storage.FileID // the segment the scan is reading
	next int32          // first page of seg not yet confirmed consumed
	pos  LSN            // stream offset of the next byte Next will emit
	// end is the stream offset the assembled prefix reaches; -1 until the
	// scan anchors at the first live record boundary. Bytes in
	// [pos, end) sit in carry; bytes below pos were either emitted or are
	// below the caller's starting LSN and were skipped without copying.
	end     LSN
	carry   []byte
	emitted bool
	// notLog holds the files above seg whose written page 0 opens no
	// segment, so successor reads each of them once; zero is the checksum
	// of a page never written.
	notLog map[storage.FileID]bool
	zero   uint32
}

// OpenTail positions a reader over dev's log at LSN from, verifying the
// live pages still reach down to it. It returns ErrTruncatedAway when a
// checkpoint has truncated the log above from — without reading a page
// below the scan floor (findHead).
func OpenTail(dev storage.Device, from LSN) (*TailReader, error) {
	if from < 0 {
		return nil, fmt.Errorf("wal: cannot tail from negative LSN %d", from)
	}
	head := findHead(dev)
	if len(head.segs) == 0 {
		return nil, ErrNotALog
	}
	r := &TailReader{dev: dev, kept: head.kept, seg: head.segs[0].file, next: head.page, pos: from, end: -1,
		notLog: make(map[storage.FileID]bool), zero: storage.PageChecksum(make([]byte, dev.PageSize()))}
	err := r.scan()
	r.kept = nil // whatever the first scan left is stale by the next
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Pos returns the stream offset of the next byte Next will emit.
func (r *TailReader) Pos() LSN { return r.pos }

// Next assembles newly durable log pages and returns the next run of
// complete, CRC-valid records: base is the stream offset of data[0]. The
// run stops at the first record boundary past max bytes (a single record
// may exceed max on its own). nil data with nil error means the reader is
// caught up with the durable log; call again after the appender syncs.
func (r *TailReader) Next(max int) (LSN, []byte, error) {
	if err := r.scan(); err != nil {
		return 0, nil, err
	}
	k := completePrefix(r.pos, r.carry, max)
	if k == 0 {
		return r.pos, nil, nil
	}
	base := r.pos
	data := make([]byte, k)
	copy(data, r.carry[:k])
	r.pos += LSN(k)
	r.carry = r.carry[k:]
	r.emitted = true
	return base, data, nil
}

// scan consumes durable log pages into carry, segment by segment,
// mirroring scanStream's reconciliation rules incrementally. The appender
// opens a segment's successor only after its last write to it, so a
// successor found before the scan proves the scan sees the whole segment.
// A reader whose segment was dropped with its successor lost pages it had
// not read.
func (r *TailReader) scan() error {
	for {
		n := int32(r.dev.NumPages(r.seg))
		var succ storage.FileID
		ok := false
		if n == 0 || n >= segPages {
			succ, ok = r.successor()
		}
		if err := r.scanPages(n); err != nil {
			return err
		}
		if !ok {
			if n == 0 {
				return ErrTruncatedAway
			}
			return nil
		}
		r.seg, r.next = succ, 0
	}
}

// scanPages consumes seg's pages from next up to n. Pages that fail their
// checksum or read as unwritten are not consumed: they may be mid-write by
// the appender, so the scan leaves next pointing at the first such page and
// revisits it. A later durable page proves the skipped ones dead (the
// appender seals pages in order), at which point next advances past them.
func (r *TailReader) scanPages(n int32) error {
	for p := r.next; p < n; p++ {
		id := storage.PageID{File: r.seg, Page: p}
		buf := r.kept.take(id)
		if buf == nil {
			var err error
			if buf, err = readTailPage(r.dev, id); err != nil {
				return err
			}
			if buf == nil {
				continue // torn or in flight: revisit next scan
			}
		}
		hd := parseHeader(buf)
		data := payload(buf, p, hd)
		if !hd.live(len(buf)) || data == nil {
			continue // unwritten allocation, possibly in flight: revisit
		}
		start := hd.start
		if r.end < 0 {
			// Anchoring: the first live page must open a record for the
			// stream to resynchronize; a pure continuation page has its
			// head in the dead pages below and is durable, so it can be
			// consumed for good.
			if hd.first == noFirstRec || int(hd.first) >= hd.used {
				r.next = p + 1
				continue
			}
			base := start + LSN(hd.first)
			if r.pos < base {
				return ErrTruncatedAway
			}
			r.end = base
			start = base
			data = data[hd.first:]
		}
		if err := r.absorb(start, data); err != nil {
			return err
		}
		r.next = p + 1
	}
	return nil
}

// successor finds the segment after seg: the first file above it whose
// first page opens a segment naming seg as its predecessor. The page is
// kept for the scan. An empty file, or one whose page 0 is unwritten or not
// durable, may be a segment being opened and is looked at again on the
// next call; one whose durable page 0 opens no segment never will (a log
// page is written once, and no data page parses as one), so it is read
// only once per reader.
func (r *TailReader) successor() (storage.FileID, bool) {
	for f := r.seg + 1; int(f) < r.dev.Files(); f++ {
		id := storage.PageID{File: f}
		if sum, ok := r.dev.Checksum(id); r.notLog[f] || !ok || sum == r.zero {
			continue
		}
		buf, err := readTailPage(r.dev, id)
		if err != nil || buf == nil {
			continue
		}
		s, ok := parseSegHeader(f, buf)
		if !ok {
			r.notLog[f] = true
			continue
		}
		if s.prev == r.seg {
			if r.kept == nil {
				r.kept = make(keptPages)
			}
			r.kept[id] = buf
			return f, true
		}
	}
	return 0, false
}

// readTailPage reads a log page the appender may be writing concurrently.
// It returns nil without an error for a page that is not durable yet —
// torn, in flight, corrupted in transit — or whose segment was dropped
// under the reader.
func readTailPage(dev storage.Device, id storage.PageID) ([]byte, error) {
	buf, err := storage.ReadPage(dev, id)
	if err != nil {
		if storage.IsChecksum(err) || dev.NumPages(id.File) <= int(id.Page) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: tailing log page %v: %w", id, err)
	}
	if want, ok := dev.Checksum(id); !ok || storage.PageChecksum(buf) != want {
		return nil, nil
	}
	return buf, nil
}

// absorb reconciles one durable page's payload, covering stream bytes
// [start, start+len(payload)), against the assembled prefix.
func (r *TailReader) absorb(start LSN, payload []byte) error {
	switch {
	case start > r.end:
		// The pages between were lost wholesale (truncated under the
		// reader); nothing after them is contiguous with what we hold.
		return ErrTruncatedAway
	case start < r.end:
		// A post-crash resume superseded the tail above start. Emitted
		// bytes are never superseded — recovery keeps every complete
		// record — so a rewind below pos after emission means divergence.
		if start < r.pos {
			if r.emitted {
				return ErrTruncatedAway
			}
			r.carry = r.carry[:0]
		} else {
			r.carry = r.carry[:start-r.pos]
		}
		r.end = start
	}
	end := start + LSN(len(payload))
	if end <= r.pos {
		r.end = end // still below the caller's ask: skip without copying
		return nil
	}
	skip := 0
	if start < r.pos {
		skip = int(r.pos - start)
	}
	r.carry = append(r.carry, payload[skip:]...)
	r.end = end
	return nil
}

// completePrefix returns the length of the longest prefix of stream that
// parses as complete, checksum-valid records, stopping at the first record
// boundary past max bytes (0 disables the cap). It walks the records as
// parseStream does, without decoding them: the tail path re-validates bytes
// it never needs to materialize as Records.
func completePrefix(base LSN, stream []byte, max int) int {
	off := 0
	for {
		end, ok := recordEnd(base, stream, off)
		if !ok || max > 0 && off > 0 && end > max {
			return off
		}
		off = end
	}
}

// AppendRaw appends a chunk of pre-encoded records — the bytes a
// TailReader emitted on another device — to the log and forces them
// durable, into the newest segment whatever its size (a follower's log
// never rolls; see segment.go). from must be exactly the log's current stream end, and the
// chunk must parse entirely as complete, checksum-valid records; anything
// else is rejected wholesale and the log is left untouched, so a corrupt
// shipped segment can never enter the local stream. The parsed records are
// returned so the caller can see what the chunk carried (commits, catalog
// registrations, checkpoints) without re-parsing.
func (l *Log) AppendRaw(from LSN, data []byte) ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	end := l.tailStart + LSN(len(l.tail))
	if from != end {
		return nil, fmt.Errorf("wal: raw append at LSN %d, log ends at %d", from, end)
	}
	records, consumed := parseStream(from, data)
	if consumed != int64(len(data)) {
		return nil, fmt.Errorf("wal: raw chunk at LSN %d: only %d of %d bytes parse as complete records",
			from, consumed, len(data))
	}
	for _, r := range records {
		l.bounds = append(l.bounds, r.LSN)
		l.stats.Records++
		switch r.Type {
		case RecImage:
			l.stats.Images++
		case RecAppend:
			l.stats.Appends++
		case RecCommit:
			l.stats.Commits++
		case RecAbort:
			l.stats.Aborts++
		case RecCheckpointEnd:
			l.stats.Checkpoints++
		}
	}
	l.tail = append(l.tail, data...)
	l.stats.BytesLogged += int64(len(data))
	if err := l.syncStamped(l.floor, false); err != nil {
		return nil, err
	}
	return records, nil
}

// ParseChunk parses a shipped chunk of complete records whose stream
// offset is base, requiring the chunk to parse exactly to its end — the
// contract TailReader.Next guarantees for what it emits. Replication
// sources use it to watch their own log for page-changing records without
// touching the appender.
func ParseChunk(base LSN, data []byte) ([]Record, error) {
	records, consumed := parseStream(base, data)
	if consumed != int64(len(data)) {
		return nil, fmt.Errorf("wal: chunk at %d parses to %d of %d bytes", base, consumed, len(data))
	}
	return records, nil
}
