package spatialjoin

import (
	"encoding/binary"
	"fmt"
	"io"

	"spatialjoin/internal/fault"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/wal"
)

// snapMagic heads a snapshot stream: a header naming the checkpoint the
// image is consistent as of, wrapped around a storage device image.
var snapMagic = []byte("SJSNAP1\n")

const snapVersion = 1

// SnapshotInfo describes an exported or imported snapshot.
type SnapshotInfo struct {
	// CheckpointLSN is the begin LSN of the checkpoint taken immediately
	// before the image was cut; the image is consistent as of its end.
	CheckpointLSN wal.LSN
	// WALDurable is the log's durable tail at export — where the replica's
	// log resumes appending.
	WALDurable wal.LSN
	// Pages is the number of device pages in the image.
	Pages int
}

// ExportSnapshot checkpoints the database and streams a self-verifying
// device image to w, suitable for seeding a replica with SeedFromSnapshot.
// The checkpoint first forces everything committed onto the device and
// truncates the log, so the image is consistent and its replay bounded; writers
// may run concurrently — anything committed after the checkpoint's begin
// record simply rides along in the imaged log and is replayed on the
// replica. The stream ends in a CRC-32C trailer, so a torn or truncated
// copy fails loudly at import instead of silently seeding a prefix.
func (db *Database) ExportSnapshot(w io.Writer) (SnapshotInfo, error) {
	var info SnapshotInfo
	cs, err := db.checkpoint(true)
	if err != nil {
		return info, err
	}
	fault.CrashPoint("snapshot.export")
	info.CheckpointLSN = cs.BeginLSN
	info.WALDurable = wal.LSN(db.wal.DurableLSN())
	if _, err := w.Write(snapMagic); err != nil {
		return info, err
	}
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:], snapVersion)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(info.CheckpointLSN))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(info.WALDurable))
	if _, err := w.Write(hdr[:]); err != nil {
		return info, err
	}
	info.Pages, err = storage.WriteDeviceImage(w, db.Device())
	return info, err
}

// SeedFromSnapshot materializes a fresh database from a snapshot stream: a
// brand-new healthy device is built page for page from the image, then
// opened through ordinary checkpoint-bounded recovery — the imaged log
// carries the checkpoint manifest and whatever committed past it. cfg
// plays the role it does for Reopen and must match the exporter's page
// geometry; cfg.Fault, when set, wraps the replica's device so chaos
// harnesses can torment the seeded copy too.
func SeedFromSnapshot(cfg Config, r io.Reader) (*Database, SnapshotInfo, error) {
	var info SnapshotInfo
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil || string(m[:]) != string(snapMagic) {
		return nil, info, fmt.Errorf("spatialjoin: stream is not a snapshot")
	}
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, info, fmt.Errorf("spatialjoin: truncated snapshot header: %w", err)
	}
	if v := binary.LittleEndian.Uint32(hdr[0:]); v != snapVersion {
		return nil, info, fmt.Errorf("spatialjoin: snapshot version %d, want %d", v, snapVersion)
	}
	info.CheckpointLSN = wal.LSN(binary.LittleEndian.Uint64(hdr[4:]))
	info.WALDurable = wal.LSN(binary.LittleEndian.Uint64(hdr[12:]))
	disk, err := storage.ReadDeviceImage(r)
	if err != nil {
		return nil, info, err
	}
	if disk.PageSize() != cfg.PageSize {
		return nil, info, fmt.Errorf("spatialjoin: snapshot page size %d != configured %d",
			disk.PageSize(), cfg.PageSize)
	}
	info.Pages = countPages(disk)
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
	return db, info, nil
}

// deltaMagic heads a snapshot-delta stream: the same length as snapMagic,
// so a receiver dispatches on the first eight bytes of either stream.
var deltaMagic = []byte("SJDELTA1")

const deltaVersion = 1

// DeltaInfo describes an exported or applied snapshot delta.
type DeltaInfo struct {
	// SinceLSN is the replica's last-applied LSN the delta was cut against:
	// every page the log changed (imaged or appended to) at or above it is
	// included.
	SinceLSN wal.LSN
	// WALDurable is the primary log's durable tail at export.
	WALDurable wal.LSN
	// DataPages is the number of dirtied data pages shipped.
	DataPages int
	// LogPages is the number of log pages shipped (the log travels whole —
	// it is the delta's authority on what committed).
	LogPages int
}

// ExportDelta streams the pages in pages plus the live write-ahead log — the
// pages from the truncation head on — to w as a snapshot delta. The caller — a replication source — is responsible
// for the protocol around it: checkpoint first so committed content is on
// the device, derive pages from the log's page records since the replica's
// applied LSN, and keep the log pinned (RetainWAL) so truncation cannot
// outrun that derivation. The log ships authoritative: the receiver zeroes
// whatever log pages the delta does not carry — the dead pages below the
// head among them — then replays the shipped log end to end. A shipped page may be newer than the shipped log prefix (the
// export reads the log first); replay rewinds it where the prefix holds an
// image of it, and otherwise the appends the tail stream brings later find
// their slots present and change nothing.
func (db *Database) ExportDelta(w io.Writer, since wal.LSN, pages []storage.PageID) (DeltaInfo, error) {
	var info DeltaInfo
	if db.wal == nil {
		return info, fmt.Errorf("spatialjoin: ExportDelta requires Config.WAL")
	}
	info.SinceLSN = since
	info.WALDurable = db.wal.DurableLSN()
	if _, err := w.Write(deltaMagic); err != nil {
		return info, err
	}
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:], deltaVersion)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(info.SinceLSN))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(info.WALDurable))
	if _, err := w.Write(hdr[:]); err != nil {
		return info, err
	}
	var err error
	info.DataPages, info.LogPages, err = storage.WritePageSetImage(
		w, liveLog{db.Device(), int32(db.wal.HeadPage())}, pages, []storage.FileID{wal.LogFileID})
	return info, err
}

// liveLog is the device as a delta images it: log pages below head — dead
// since a checkpoint moved the scan floor past them, but still on a device
// that never returns them — read as unwritten, so the page-set codec leaves
// them out as it leaves out every zero page of an authoritative file.
type liveLog struct {
	storage.Device
	head int32
}

func (v liveLog) ReadPageInto(id storage.PageID, buf []byte) error {
	if id.File == wal.LogFileID && id.Page < v.head {
		clear(buf)
		return nil
	}
	//sjlint:ignore rawdisk a Device view forwarding to the device it wraps; the codec reading through it is the accounted reader
	return v.Device.ReadPageInto(id, buf)
}

// Files forwards the enumeration hook the image codecs need.
func (v liveLog) Files() int {
	if fc, ok := v.Device.(interface{ Files() int }); ok {
		return fc.Files()
	}
	return 0
}

// ApplySnapshotDelta patches a replica's raw disk in place from a delta
// stream. The caller must have closed the database using the disk first and
// must reopen it through full-log recovery (ReopenAt with floor 1) after:
// the shipped log is the only authority on which of the patched pages'
// contents are committed. On error the disk may be half-patched and must be
// discarded in favor of a full reseed.
func ApplySnapshotDelta(disk *storage.Disk, r io.Reader) (DeltaInfo, error) {
	var info DeltaInfo
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil || string(m[:]) != string(deltaMagic) {
		return info, fmt.Errorf("spatialjoin: stream is not a snapshot delta")
	}
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return info, fmt.Errorf("spatialjoin: truncated delta header: %w", err)
	}
	if v := binary.LittleEndian.Uint32(hdr[0:]); v != deltaVersion {
		return info, fmt.Errorf("spatialjoin: delta version %d, want %d", v, deltaVersion)
	}
	info.SinceLSN = wal.LSN(binary.LittleEndian.Uint64(hdr[4:]))
	info.WALDurable = wal.LSN(binary.LittleEndian.Uint64(hdr[12:]))
	var err error
	info.DataPages, info.LogPages, err = storage.ApplyPageSetImage(r, disk)
	return info, err
}

// SniffSnapshot inspects the eight-byte prefix of a seeding stream and
// reports whether it heads a full snapshot (true) or a snapshot delta
// (false). Replicas use it to dispatch a resync response, since a primary
// answers a delta request with a full snapshot when its dirty-page
// tracking does not reach back far enough.
func SniffSnapshot(prefix []byte) (bool, error) {
	switch {
	case string(prefix) == string(snapMagic):
		return true, nil
	case string(prefix) == string(deltaMagic):
		return false, nil
	}
	return false, fmt.Errorf("spatialjoin: stream is neither a snapshot nor a delta")
}

// countPages totals the pages of every file on a freshly imaged disk.
func countPages(d *storage.Disk) int {
	total := 0
	for f := 0; f < d.Files(); f++ {
		total += d.NumPages(storage.FileID(f))
	}
	return total
}
