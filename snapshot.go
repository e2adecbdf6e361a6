package spatialjoin

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"spatialjoin/internal/fault"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/wal"
)

// A snapshot stream is one header followed by a storage page set:
//
//	magic "SJSNAP1\n" | u32 version | u64 checkpoint LSN | u64 WAL durable | u64 since LSN
//	page set (internal/storage): geometry, header CRC, pages, trailer CRC
//
// A full snapshot names the checkpoint it was cut after and carries every
// file whole; a delta names the LSN it was cut against and carries the
// pages dirtied since, plus the log whole. Exactly one of the two LSNs is
// set, so since 0 means full. Either way each segment of the log travels
// whole, the oldest from its head: the pages below the head are dead and
// arrive as implied zeros, and a segment the log has given back travels as
// the empty file it now is.
//
// The page set's checksums cover the header fields after the checkpoint
// LSN. The checkpoint LSN itself is vouched for by the seed's recovery,
// which must find the very checkpoint the header names.
var snapMagic = []byte("SJSNAP1\n")

const (
	snapVersion   = 2
	snapHeaderLen = 36
	// snapSealed is where the header bytes the page set's checksums cover
	// begin: just past the checkpoint LSN.
	snapSealed = 20
)

// SnapshotInfo describes an exported or imported snapshot or delta.
type SnapshotInfo struct {
	// CheckpointLSN is the begin LSN of the checkpoint a full snapshot was
	// cut after; it is consistent as of the checkpoint's end. Zero in a
	// delta.
	CheckpointLSN wal.LSN
	// WALDurable is the log's durable tail at export — where the replica's
	// log resumes appending.
	WALDurable wal.LSN
	// SinceLSN is the replica's last-applied LSN a delta was cut against:
	// every page the log changed at or above it is included. Zero in a full
	// snapshot.
	SinceLSN wal.LSN
	// Pages is the number of pages shipped: DataPages plus LogPages. A
	// delta's applier tells them apart by the files that travel whole;
	// SeedFromSnapshot, by the log it recovers.
	Pages     int
	DataPages int
	LogPages  int
}

// ExportSnapshot checkpoints the database and streams a self-verifying full
// snapshot to w, suitable for seeding a replica with SeedFromSnapshot. The
// checkpoint first forces everything committed onto the device and
// truncates the log, so the snapshot is consistent and its replay bounded;
// writers may run concurrently — anything committed after the checkpoint's
// begin record simply rides along in the shipped log and is replayed on the
// replica. The stream ends in a CRC-32C trailer, so a torn or truncated
// copy fails loudly at import instead of silently seeding a prefix.
func (db *Database) ExportSnapshot(w io.Writer) (SnapshotInfo, error) {
	cs, err := db.checkpoint(true)
	if err != nil {
		return SnapshotInfo{}, err
	}
	fault.CrashPoint("snapshot.export")
	return db.exportPages(w, SnapshotInfo{CheckpointLSN: cs.BeginLSN}, nil)
}

// ExportDelta streams the pages in pages plus the live write-ahead log to w
// as a snapshot delta. The caller — a replication source — is responsible
// for the protocol around it: checkpoint first so committed content is on
// the device, derive pages from the log's page records since the replica's
// applied LSN, and keep the log pinned (RetainWAL) so truncation cannot
// outrun that derivation. The log ships whole: the receiver zeroes whatever
// log pages the delta does not carry, then replays the shipped log end to
// end. A shipped page may be newer than the shipped log prefix (the export
// reads the log first); replay rewinds it where the prefix holds an image
// of it, and otherwise the appends the tail stream brings later find their
// slots present and change nothing.
func (db *Database) ExportDelta(w io.Writer, since wal.LSN, pages []storage.PageID) (SnapshotInfo, error) {
	if db.wal == nil {
		return SnapshotInfo{}, fmt.Errorf("spatialjoin: ExportDelta requires Config.WAL")
	}
	if since == 0 {
		return SnapshotInfo{}, fmt.Errorf("spatialjoin: a delta since LSN 0 is a full snapshot; use ExportSnapshot")
	}
	return db.exportPages(w, SnapshotInfo{SinceLSN: since}, pages)
}

// exportPages writes info's header and the page set: pages, plus every
// file whole in a full snapshot or only the log in a delta, the log from
// its head. A delta also sends every empty file whole — among them the
// segments the log has dropped — so a replica's stale copy of one is
// cleared rather than left to pose as log.
func (db *Database) exportPages(w io.Writer, info SnapshotInfo, pages []storage.PageID) (SnapshotInfo, error) {
	info.WALDurable = db.wal.DurableLSN()
	hdr := info.header()
	if _, err := w.Write(hdr); err != nil {
		return info, err
	}
	dev, logFiles, full := db.Device(), db.logFiles(), info.SinceLSN == 0
	shipped, err := storage.WritePageSet(w, dev, hdr[snapSealed:], pages,
		func(f storage.FileID) (int32, bool) {
			if from, ok := logFiles[f]; ok {
				return from, true
			}
			return 0, full || dev.NumPages(f) == 0
		})
	info.count(shipped, func(f storage.FileID) bool { _, ok := logFiles[f]; return ok })
	return info, err
}

// logFiles maps each file of the log to the first page of it a copy of the
// log must carry.
func (db *Database) logFiles() map[storage.FileID]int32 {
	files := make(map[storage.FileID]int32)
	for _, s := range db.WALSegments() {
		files[s.File] = s.From
	}
	return files
}

// ReadSnapshotHeader reads and validates the header of a snapshot stream —
// the one parser every reader uses, and the way a replica tells a full
// snapshot (SinceLSN 0) from a delta before choosing where to apply it.
func ReadSnapshotHeader(r io.Reader) (SnapshotInfo, error) {
	var info SnapshotInfo
	var hdr [snapHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:len(snapMagic)]); err != nil || !bytes.Equal(hdr[:len(snapMagic)], snapMagic) {
		return info, fmt.Errorf("spatialjoin: stream is not a snapshot")
	}
	if _, err := io.ReadFull(r, hdr[len(snapMagic):]); err != nil {
		return info, fmt.Errorf("spatialjoin: truncated snapshot header: %w", err)
	}
	le := binary.LittleEndian
	if v := le.Uint32(hdr[8:]); v != snapVersion {
		return info, fmt.Errorf("spatialjoin: snapshot version %d, want %d", v, snapVersion)
	}
	info.CheckpointLSN = wal.LSN(le.Uint64(hdr[12:]))
	info.WALDurable = wal.LSN(le.Uint64(hdr[20:]))
	info.SinceLSN = wal.LSN(le.Uint64(hdr[28:]))
	if (info.CheckpointLSN == 0) == (info.SinceLSN == 0) {
		return info, fmt.Errorf("spatialjoin: snapshot header names checkpoint %d and since %d; exactly one must be set",
			info.CheckpointLSN, info.SinceLSN)
	}
	return info, nil
}

// header encodes info as a stream header.
func (info SnapshotInfo) header() []byte {
	le := binary.LittleEndian
	hdr := le.AppendUint32(append([]byte(nil), snapMagic...), snapVersion)
	hdr = le.AppendUint64(hdr, uint64(info.CheckpointLSN))
	hdr = le.AppendUint64(hdr, uint64(info.WALDurable))
	return le.AppendUint64(hdr, uint64(info.SinceLSN))
}

// apply patches disk from the page set that follows info's header and
// returns the pages it carried. A delta's are counted here: only the log
// (and files with no pages) travels whole in one.
func (info *SnapshotInfo) apply(r io.Reader, disk *storage.Disk) ([]storage.PageID, error) {
	shipped, whole, err := storage.ApplyPageSet(r, disk, info.header()[snapSealed:])
	info.count(shipped, func(f storage.FileID) bool { return info.SinceLSN != 0 && whole[f] })
	return shipped, err
}

// count splits the shipped pages into data and log pages.
func (info *SnapshotInfo) count(shipped []storage.PageID, isLog func(storage.FileID) bool) {
	info.Pages, info.LogPages = len(shipped), 0
	for _, id := range shipped {
		if isLog(id.File) {
			info.LogPages++
		}
	}
	info.DataPages = info.Pages - info.LogPages
}

// SeedFromSnapshot materializes a fresh database from a full snapshot
// stream: the page set is applied onto a brand-new healthy device, which
// then opens through ordinary checkpoint-bounded recovery — the shipped log
// carries the checkpoint manifest and whatever committed past it. cfg plays
// the role it does for Reopen and must match the exporter's page geometry;
// cfg.Fault, when set, wraps the replica's device so chaos harnesses can
// torment the seeded copy too.
func SeedFromSnapshot(cfg Config, r io.Reader) (*Database, SnapshotInfo, error) {
	info, err := ReadSnapshotHeader(r)
	if err != nil {
		return nil, info, err
	}
	if info.SinceLSN != 0 {
		return nil, info, fmt.Errorf("spatialjoin: stream is a snapshot delta, not a full snapshot")
	}
	disk := storage.NewDisk(cfg.PageSize)
	shipped, err := info.apply(r, disk)
	if err != nil {
		return nil, info, err
	}
	var device storage.Device = disk
	if cfg.Fault != nil {
		device = fault.Wrap(device, *cfg.Fault)
	}
	db, stats, err := Reopen(cfg, device)
	if err != nil {
		return nil, info, err
	}
	if stats.CheckpointLSN != info.CheckpointLSN {
		// The device opened, so it must be closed: a seed that leaks its
		// half-built database keeps the log and pool frames alive.
		db.Close()
		return nil, info, fmt.Errorf("spatialjoin: snapshot names checkpoint %d but recovery found %d (corrupt or mismatched stream)",
			info.CheckpointLSN, stats.CheckpointLSN)
	}
	logFiles := db.logFiles()
	info.count(shipped, func(f storage.FileID) bool { _, ok := logFiles[f]; return ok })
	return db, info, nil
}

// ApplySnapshotDelta patches a replica's raw disk in place from a delta
// stream. The caller must have closed the database using the disk first and
// must reopen it through full-log recovery (ReopenAt with floor 1) after:
// the shipped log is the only authority on which of the patched pages'
// contents are committed. On error the disk may be half-patched and must be
// discarded in favor of a full reseed.
func ApplySnapshotDelta(disk *storage.Disk, r io.Reader) (SnapshotInfo, error) {
	info, err := ReadSnapshotHeader(r)
	if err != nil {
		return info, err
	}
	if info.SinceLSN == 0 {
		return info, fmt.Errorf("spatialjoin: stream is a full snapshot, not a delta")
	}
	_, err = info.apply(r, disk)
	return info, err
}
