package wal

import (
	"encoding/binary"
	"fmt"

	"spatialjoin/internal/fault"
	"spatialjoin/internal/storage"
)

// A fuzzy checkpoint bounds recovery without stopping writers. The
// protocol, in LSN order:
//
//  1. RecCheckpointBegin is appended at LSN Lb.
//  2. The buffer pool's committed-dirty frames are flushed incrementally
//     (ascending PageID, one frame latch at a time), shrinking the
//     dirty-page table while transactions keep running.
//  3. RecCheckpointEnd is appended carrying the residual dirty-page table
//     (page → redo floor), the active-transaction table (txn → begin LSN),
//     the catalog manifest, and the next transaction id; then the log is
//     forced durable. Only a durable end record makes the checkpoint real.
//  4. The final page of that sync raises the log's scan floor to
//     min(DPT floor, Lb, oldest active begin): nothing below that LSN can
//     ever be needed for redo, and no scan reads the pages wholly below it
//     again (invariant I4 of the package comment).
//  5. TruncateBelow gives back every segment that now lies wholly below
//     the floor.
//
// Recovery redoes a committed page record (image or append) at LSN L on
// page P iff L ≥ min(Lb, oldest active begin) or P is in the DPT with
// DPT[P] ≤ L; everything else is provably already on the device and is
// skipped. The rule cuts each page's history at one LSN, so what remains is
// a suffix (invariant I2), and a dirty frame's redo floor reaches back to
// the transaction that logged its image (I1), so a page whose write-back a
// crash tears always finds that image among the records to redo.
// In-flight transactions may straddle the boundary — the active table plus
// the no-steal pool make that safe: an uncommitted change is never on the
// device, and its eventual commit lies above the checkpoint's floor.

// DirtyPage is one dirty-page-table entry of a checkpoint: a page whose
// committed content had not reached the device, and the LSN redo must
// start at to reconstruct it.
type DirtyPage struct {
	Page   storage.PageID
	RecLSN LSN
}

// ActiveTxn is one active-transaction-table entry: a transaction that had
// begun but not yet finished (committed or aborted) when the checkpoint's
// tables were cut.
type ActiveTxn struct {
	Txn      uint64
	BeginLSN LSN
}

// ManifestCollection names one collection the checkpoint vouches for: its
// catalog registration plus the commit LSN its persisted files cover. A
// recovery that replays nothing newer onto the collection's files may load
// the R-tree straight from the persisted index file instead of rebuilding
// it from a heap scan.
type ManifestCollection struct {
	NewCollection
	CoveringLSN LSN
}

// ManifestJoinIndex names one join index the checkpoint vouches for.
type ManifestJoinIndex struct {
	NewJoinIndex
	CoveringLSN LSN
}

// Manifest is the catalog snapshot a checkpoint carries. Truncation puts
// catalog records below the floor out of every scan's reach, so the manifest
// — not the record stream — is the authoritative list of pre-checkpoint objects;
// post-checkpoint registrations still arrive as ordinary records.
type Manifest struct {
	Collections []ManifestCollection
	JoinIndices []ManifestJoinIndex
}

// Checkpoint is the decoded payload of a RecCheckpointEnd record.
type Checkpoint struct {
	BeginLSN LSN
	NextTxn  uint64
	Active   []ActiveTxn
	DPT      []DirtyPage
	Manifest Manifest
}

// RedoFloor returns the LSN recovery redo must start at: the minimum over
// the checkpoint begin, every dirty page's recLSN, and every active
// transaction's begin LSN. Log pages wholly below it are dead.
func (cp *Checkpoint) RedoFloor() LSN {
	floor := cp.BeginLSN
	for _, d := range cp.DPT {
		if d.RecLSN < floor {
			floor = d.RecLSN
		}
	}
	for _, a := range cp.Active {
		if a.BeginLSN < floor {
			floor = a.BeginLSN
		}
	}
	return floor
}

// replayStart returns the LSN above which every committed image is
// replayed unconditionally: the checkpoint begin, lowered to the oldest
// straddling transaction's begin so a transaction whose images landed just
// below Lb is never clipped.
func (cp *Checkpoint) replayStart() LSN {
	start := cp.BeginLSN
	for _, a := range cp.Active {
		if a.BeginLSN < start {
			start = a.BeginLSN
		}
	}
	return start
}

func putU64(buf []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(buf, b[:]...)
}

func getU64(buf []byte) (uint64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, fmt.Errorf("wal: truncated checkpoint payload")
	}
	return binary.LittleEndian.Uint64(buf), buf[8:], nil
}

func putCount(buf []byte, n int) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(n))
	return append(buf, b[:]...)
}

func getCount(buf []byte) (int, []byte, error) {
	if len(buf) < 4 {
		return 0, nil, fmt.Errorf("wal: truncated checkpoint payload")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if n > maxDataLen {
		return 0, nil, fmt.Errorf("wal: checkpoint table of %d entries overruns payload", n)
	}
	return n, buf[4:], nil
}

// EncodeCheckpoint serializes a checkpoint payload for RecCheckpointEnd.
func EncodeCheckpoint(cp Checkpoint) []byte {
	buf := putU64(nil, uint64(cp.BeginLSN))
	buf = putU64(buf, cp.NextTxn)
	buf = putCount(buf, len(cp.Active))
	for _, a := range cp.Active {
		buf = putU64(buf, a.Txn)
		buf = putU64(buf, uint64(a.BeginLSN))
	}
	buf = putCount(buf, len(cp.DPT))
	for _, d := range cp.DPT {
		buf = putFile(buf, d.Page.File)
		buf = putCount(buf, int(d.Page.Page))
		buf = putU64(buf, uint64(d.RecLSN))
	}
	buf = putCount(buf, len(cp.Manifest.Collections))
	for _, c := range cp.Manifest.Collections {
		buf = append(buf, EncodeNewCollection(c.NewCollection)...)
		buf = putU64(buf, uint64(c.CoveringLSN))
	}
	buf = putCount(buf, len(cp.Manifest.JoinIndices))
	for _, j := range cp.Manifest.JoinIndices {
		buf = append(buf, EncodeNewJoinIndex(j.NewJoinIndex)...)
		buf = putU64(buf, uint64(j.CoveringLSN))
	}
	return buf
}

// DecodeCheckpoint parses a RecCheckpointEnd payload.
func DecodeCheckpoint(data []byte) (Checkpoint, error) {
	var cp Checkpoint
	var err error
	var v uint64
	if v, data, err = getU64(data); err != nil {
		return cp, err
	}
	cp.BeginLSN = LSN(v)
	if cp.NextTxn, data, err = getU64(data); err != nil {
		return cp, err
	}
	var n int
	if n, data, err = getCount(data); err != nil {
		return cp, err
	}
	for i := 0; i < n; i++ {
		var a ActiveTxn
		if a.Txn, data, err = getU64(data); err != nil {
			return cp, err
		}
		if v, data, err = getU64(data); err != nil {
			return cp, err
		}
		a.BeginLSN = LSN(v)
		cp.Active = append(cp.Active, a)
	}
	if n, data, err = getCount(data); err != nil {
		return cp, err
	}
	for i := 0; i < n; i++ {
		var d DirtyPage
		if d.Page.File, data, err = getFile(data); err != nil {
			return cp, err
		}
		var p int
		if p, data, err = getCount(data); err != nil {
			return cp, err
		}
		d.Page.Page = int32(p)
		if v, data, err = getU64(data); err != nil {
			return cp, err
		}
		d.RecLSN = LSN(v)
		cp.DPT = append(cp.DPT, d)
	}
	if n, data, err = getCount(data); err != nil {
		return cp, err
	}
	for i := 0; i < n; i++ {
		var c ManifestCollection
		if c.Name, data, err = getString(data); err != nil {
			return cp, err
		}
		if c.HeapFile, data, err = getFile(data); err != nil {
			return cp, err
		}
		if c.IndexFile, data, err = getFile(data); err != nil {
			return cp, err
		}
		if v, data, err = getU64(data); err != nil {
			return cp, err
		}
		c.CoveringLSN = LSN(v)
		cp.Manifest.Collections = append(cp.Manifest.Collections, c)
	}
	if n, data, err = getCount(data); err != nil {
		return cp, err
	}
	for i := 0; i < n; i++ {
		var j ManifestJoinIndex
		if j.R, data, err = getString(data); err != nil {
			return cp, err
		}
		if j.S, data, err = getString(data); err != nil {
			return cp, err
		}
		if j.Operator, data, err = getString(data); err != nil {
			return cp, err
		}
		if j.PairFile, data, err = getFile(data); err != nil {
			return cp, err
		}
		if v, data, err = getU64(data); err != nil {
			return cp, err
		}
		j.CoveringLSN = LSN(v)
		cp.Manifest.JoinIndices = append(cp.Manifest.JoinIndices, j)
	}
	return cp, nil
}

// AppendCheckpointBegin appends the begin marker of a fuzzy checkpoint and
// returns its LSN — the Lb every later skip decision is measured against.
func (l *Log) AppendCheckpointBegin() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.append(Record{Type: RecCheckpointBegin})
}

// AppendCheckpointEnd appends the checkpoint payload and forces the log
// durable: a checkpoint the recovery scanner may trust exists only once
// this returns nil. With truncate, the sync's final page raises the scan
// floor to the checkpoint's redo floor, clipped by the Retain pin: the
// truncation is durable in the same write that completes the record
// justifying it (invariant I4), and costs no I/O of its own.
func (l *Log) AppendCheckpointEnd(cp Checkpoint, truncate bool) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn := l.append(Record{Type: RecCheckpointEnd, Data: EncodeCheckpoint(cp)})
	floor := l.floor
	if truncate {
		keep := cp.RedoFloor()
		if l.retain > 0 && l.retain < keep {
			keep = l.retain
		}
		floor = max(floor, keep)
	}
	if err := l.syncStamped(floor, true); err != nil {
		return lsn, err
	}
	l.stats.Checkpoints++
	return lsn, nil
}

// ScanFloor returns the LSN below which no scan of the log reads: the floor
// the last truncating checkpoint made durable.
func (l *Log) ScanFloor() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.floor
}

// TruncateBelow reclaims the log pages wholly below keep, clipped to the
// durable scan floor, and returns how many there were. It stops at the
// first page it must keep and gives back to the device every segment before
// the one holding that page — metadata: nothing is read or written. A
// dropped segment lies wholly below a floor a checksum-valid stamp has
// already made durable (invariant I4), so the oldest segment left still
// reaches down to the floor.
func (l *Log) TruncateBelow(keep LSN) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	keep = min(keep, l.floor)
	n := 0
	for n < len(l.live) && l.live[n].end <= keep {
		n++
	}
	l.live = l.live[:copy(l.live, l.live[n:])]
	l.stats.TruncatedPages += int64(n)

	// Segments are created in file order, so the dead ones are the files
	// below the head's.
	dead := func() bool { return len(l.segs) > 1 && (len(l.live) == 0 || l.segs[0].file < l.live[0].file) }
	if dead() {
		fault.CrashPoint("wal.drop-segment")
	}
	for dead() && dropSegment(l.dev, l.segs[0].file) == nil {
		l.segs = l.segs[1:]
		l.stats.SegmentsDropped++
	}
	return n
}

// HeadPage returns the first log page TruncateBelow has not reclaimed,
// numbered in log order — counting every page the log has written, the
// dropped segments' included: every page below it is dead.
func (l *Log) HeadPage() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.live) == 0 {
		return 0
	}
	for _, s := range l.segs {
		if s.file == l.live[0].file {
			return s.ord*segPages + int(l.live[0].page)
		}
	}
	return 0
}

// Segment names one file of the log and the first of its pages a copy of
// the log must carry.
type Segment struct {
	File storage.FileID
	From int32 // the head page in the segment holding it, else 0
}

// Segments returns the files the log holds, oldest first.
func (l *Log) Segments() []Segment {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs := make([]Segment, len(l.segs))
	for i, s := range l.segs {
		segs[i].File = s.file
		if len(l.live) > 0 && l.live[0].file == s.file {
			segs[i].From = l.live[0].page
		}
	}
	return segs
}

// Retain pins truncation: a checkpoint will not raise the scan floor above
// lsn until the pin moves or clears (lsn 0). A replication source holds the
// pin at its reader's position so checkpoint truncation cannot outrun it —
// the write-ahead-log cousin of a replication slot. An over-slow reader is
// the caller's problem: release the pin and let the reader fall back to a
// snapshot resync rather than retain the log forever.
func (l *Log) Retain(lsn LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.retain = lsn
}
