package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
)

// FileID identifies a simulated file on the Disk.
type FileID int32

// PageID addresses one page of one file.
type PageID struct {
	File FileID
	Page int32
}

// String implements fmt.Stringer.
func (id PageID) String() string { return fmt.Sprintf("f%d:p%d", id.File, id.Page) }

// DiskStats counts the physical page transfers the simulated disk performed.
// Reads and Writes are successful transfers; ReadFaults and WriteFaults are
// failed or faulty physical attempts reported by a fault-injecting device
// (always zero on a healthy Disk). The total physical attempt count of a
// device is therefore Reads+ReadFaults and Writes+WriteFaults.
type DiskStats struct {
	Reads       int64
	Writes      int64
	ReadFaults  int64
	WriteFaults int64
}

// Device is the disk surface the buffer pool drives: a collection of files,
// each an extendable array of fixed-size pages, with per-page checksums and
// physical-transfer accounting. File IDs are dense and never reused: the
// files are exactly 0..Files()-1, and a dropped file stays in that range
// with no pages. Disk is the healthy in-memory implementation;
// internal/fault wraps any Device with an injected fault schedule. All
// implementations must be safe for concurrent use.
type Device interface {
	// PageSize returns the page size in bytes.
	PageSize() int
	// CreateFile allocates a new empty file.
	CreateFile() FileID
	// Files returns the number of files ever created.
	Files() int
	// DropFile gives a file's pages back to the device: afterwards the
	// file holds no pages and no checksums. Dropping is metadata, not a
	// transfer.
	DropFile(f FileID) error
	// AllocPage appends a fresh zeroed page to the file.
	AllocPage(f FileID) (PageID, error)
	// NumPages returns the number of pages in file f.
	NumPages(f FileID) int
	// ReadPageInto fills buf, which must be exactly one page long, with
	// the page's content. The caller owns buf: the buffer pool reads every
	// miss into a buffer it recycles, so a physical read allocates
	// nothing. On error buf's content is unspecified.
	ReadPageInto(id PageID, buf []byte) error
	// WritePage stores buf as the page's content.
	WritePage(id PageID, buf []byte) error
	// Checksum returns the expected CRC of the page's current content, as
	// recorded at the last successful write. The bool is false when the
	// page is unknown to the device.
	Checksum(id PageID) (uint32, bool)
	// Stats returns a snapshot of the physical transfer counters.
	Stats() DiskStats
	// ResetStats zeroes the physical transfer counters.
	ResetStats()
}

// crcTable is the polynomial used for page checksums (Castagnoli, the
// polynomial real storage engines use for its error-detection properties).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// PageChecksum returns the CRC-32C of a page image.
func PageChecksum(buf []byte) uint32 { return crc32.Checksum(buf, crcTable) }

// ReadPage reads the page into a fresh buffer the caller owns — the form
// the log, image and delta readers use, which keep or hand on the bytes.
func ReadPage(dev Device, id PageID) ([]byte, error) {
	buf := make([]byte, dev.PageSize())
	if err := dev.ReadPageInto(id, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ChecksumError reports that a page's content did not match the checksum
// recorded at its last write: the bytes were corrupted on the device or in
// flight. It classifies as permanent — the stored data cannot be trusted —
// though the buffer pool still retries reads once more in case the
// corruption happened in transit.
type ChecksumError struct {
	Page PageID
	Want uint32
	Got  uint32
}

// Error implements the error interface.
func (e *ChecksumError) Error() string {
	return fmt.Sprintf("storage: checksum mismatch on page %v: want %08x, got %08x",
		e.Page, e.Want, e.Got)
}

// Permanent reports that a checksum failure means lost data, not a retryable
// condition.
func (e *ChecksumError) Permanent() bool { return true }

// Transient reports false: corrupted bytes do not heal by waiting.
func (e *ChecksumError) Transient() bool { return false }

// IsTransient reports whether err (or anything it wraps) classifies itself
// as transient via a `Transient() bool` method — the contract implemented
// by internal/fault's injected errors. Transient failures are worth
// retrying; everything else is not.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// IsChecksum reports whether err wraps a page checksum mismatch.
func IsChecksum(err error) bool {
	var c *ChecksumError
	return errors.As(err, &c)
}

// Disk is the healthy simulated persistent store. All access goes through
// ReadPage / WritePage, which count physical transfers and maintain a
// CRC-32C per page, verified on every read. Disk is safe for concurrent
// use; the transfer counters are atomics so statistics snapshots do not
// serialize against page I/O.
type Disk struct {
	mu       sync.Mutex
	pageSize int
	files    map[FileID][][]byte
	sums     map[PageID]uint32
	nextFile FileID
	zeroSum  uint32

	reads  atomic.Int64
	writes atomic.Int64
}

// NewDisk returns an empty disk with the given page size (DefaultPageSize
// when size ≤ 0).
func NewDisk(pageSize int) *Disk {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &Disk{
		pageSize: pageSize,
		files:    make(map[FileID][][]byte),
		sums:     make(map[PageID]uint32),
		zeroSum:  PageChecksum(make([]byte, pageSize)),
	}
}

// PageSize returns the disk's page size in bytes.
func (d *Disk) PageSize() int { return d.pageSize }

// Files returns the number of files ever created on the disk.
func (d *Disk) Files() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int(d.nextFile)
}

// CreateFile allocates a new empty file and returns its id.
func (d *Disk) CreateFile() FileID {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.nextFile
	d.nextFile++
	d.files[id] = nil
	return id
}

// DropFile deletes a file's pages and their checksums. The ID stays
// spent: the file reads as empty, and CreateFile never hands it out again.
func (d *Disk) DropFile(f FileID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	pages, ok := d.files[f]
	if !ok {
		return fmt.Errorf("storage: drop of unknown file %d", f)
	}
	for p := range pages {
		delete(d.sums, PageID{File: f, Page: int32(p)})
	}
	delete(d.files, f)
	return nil
}

// resize sets file f to exactly n pages: the pages past n go with their
// checksums, and the ones added are zero. A page set names a file's exact
// geometry this way, which brings back a file this disk had dropped.
func (d *Disk) resize(f FileID, n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pages := d.files[f]
	for p := n; p < len(pages); p++ {
		delete(d.sums, PageID{File: f, Page: int32(p)})
	}
	if n < len(pages) {
		pages = pages[:n:n]
	}
	for p := len(pages); p < n; p++ {
		pages = append(pages, make([]byte, d.pageSize))
		d.sums[PageID{File: f, Page: int32(p)}] = d.zeroSum
	}
	d.files[f] = pages
}

// AllocPage appends a fresh zeroed page to the file and returns its id.
// Page allocation itself is not counted as I/O; the subsequent write is.
func (d *Disk) AllocPage(f FileID) (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pages, ok := d.files[f]
	if !ok {
		return PageID{}, fmt.Errorf("storage: unknown file %d", f)
	}
	d.files[f] = append(pages, make([]byte, d.pageSize))
	id := PageID{File: f, Page: int32(len(pages))}
	d.sums[id] = d.zeroSum
	return id, nil
}

// NumPages returns the number of pages in file f.
func (d *Disk) NumPages(f FileID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.files[f])
}

// ReadPageInto copies the page's content into buf, verifies it against the
// checksum recorded at the last write (the media scrub), and counts one
// physical read.
func (d *Disk) ReadPageInto(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	pages, ok := d.files[id.File]
	if !ok || int(id.Page) < 0 || int(id.Page) >= len(pages) {
		return fmt.Errorf("storage: read of invalid page %v", id)
	}
	if len(buf) != d.pageSize {
		return fmt.Errorf("storage: read of %d-byte page into %d bytes", d.pageSize, len(buf))
	}
	d.reads.Add(1)
	copy(buf, pages[id.Page])
	if want, ok := d.sums[id]; ok {
		if got := PageChecksum(buf); got != want {
			return &ChecksumError{Page: id, Want: want, Got: got}
		}
	}
	return nil
}

// ReadPage is ReadPageInto a fresh buffer.
func (d *Disk) ReadPage(id PageID) ([]byte, error) { return ReadPage(d, id) }

// WritePage stores buf as the page's content, records its checksum, and
// counts one physical write.
func (d *Disk) WritePage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	pages, ok := d.files[id.File]
	if !ok || int(id.Page) < 0 || int(id.Page) >= len(pages) {
		return fmt.Errorf("storage: write of invalid page %v", id)
	}
	if len(buf) != d.pageSize {
		return fmt.Errorf("storage: write of %d bytes to %d-byte page", len(buf), d.pageSize)
	}
	d.writes.Add(1)
	copy(pages[id.Page], buf)
	d.sums[id] = PageChecksum(buf)
	return nil
}

// Checksum returns the page's recorded CRC-32C.
func (d *Disk) Checksum(id PageID) (uint32, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sum, ok := d.sums[id]
	return sum, ok
}

// Stats returns a snapshot of the physical I/O counters.
func (d *Disk) Stats() DiskStats {
	return DiskStats{Reads: d.reads.Load(), Writes: d.writes.Load()}
}

// ResetStats zeroes the physical I/O counters.
func (d *Disk) ResetStats() {
	d.reads.Store(0)
	d.writes.Store(0)
}
