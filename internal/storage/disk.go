package storage

import (
	"encoding/binary"
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
	files    []diskFile // indexed by FileID; IDs are dense and never reused
	zeroSum  uint32

	reads  atomic.Int64
	writes atomic.Int64
}

// extentPages is the number of pages in one extent: a 32-page log segment
// is four allocations, and a file wastes at most seven pages of its last
// extent.
const extentPages = 8

// diskFile is one file. Page p is the k-th pageSize bytes of
// extents[p/extentPages], k = p%extentPages, and its checksum the k-th
// little-endian uint32 after that extent's pages. The slots past the last
// page are zero, so a page allocated there needs no clearing.
type diskFile struct {
	extents [][]byte
	pages   int
	dropped bool
}

// NewDisk returns an empty disk with the given page size (DefaultPageSize
// when size ≤ 0).
func NewDisk(pageSize int) *Disk {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &Disk{
		pageSize: pageSize,
		zeroSum:  PageChecksum(make([]byte, pageSize)),
	}
}

// PageSize returns the disk's page size in bytes.
func (d *Disk) PageSize() int { return d.pageSize }

// Files returns the number of files ever created on the disk.
func (d *Disk) Files() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.files)
}

// CreateFile allocates a new empty file and returns its id.
func (d *Disk) CreateFile() FileID {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.files = append(d.files, diskFile{})
	return FileID(len(d.files) - 1)
}

// file returns file f, or nil when the disk never created it or dropped it.
func (d *Disk) file(f FileID) *diskFile {
	if f < 0 || int(f) >= len(d.files) || d.files[f].dropped {
		return nil
	}
	return &d.files[f]
}

// DropFile deletes a file's pages and their checksums. The ID stays
// spent: the file reads as empty, and CreateFile never hands it out again.
func (d *Disk) DropFile(f FileID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.file(f) == nil {
		return fmt.Errorf("storage: drop of unknown file %d", f)
	}
	d.files[f] = diskFile{dropped: true}
	return nil
}

// resize sets file f to exactly n pages: the pages past n go with their
// checksums, and the ones added are zero. A page set names a file's exact
// geometry this way, which brings back a file this disk had dropped.
func (d *Disk) resize(f FileID, n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fl := &d.files[f]
	fl.dropped = false
	for ; fl.pages > n; fl.pages-- {
		page, _ := d.locate(PageID{File: f, Page: int32(fl.pages - 1)})
		clear(page)
	}
	keep := (fl.pages + extentPages - 1) / extentPages
	clear(fl.extents[keep:])
	fl.extents = fl.extents[:keep]
	for fl.pages < n {
		d.grow(f)
	}
}

// grow appends a zero page to file f, with a new extent when the last one
// is full, and records the zero page's checksum.
func (d *Disk) grow(f FileID) PageID {
	fl := &d.files[f]
	if fl.pages%extentPages == 0 {
		if fl.extents == nil {
			fl.extents = make([][]byte, 0, 4) // a log segment's four extents
		}
		fl.extents = append(fl.extents, make([]byte, extentPages*(d.pageSize+4)))
	}
	fl.pages++
	id := PageID{File: f, Page: int32(fl.pages - 1)}
	_, sum := d.locate(id)
	binary.LittleEndian.PutUint32(sum, d.zeroSum)
	return id
}

// locate returns page id and the 4 bytes holding its checksum, or nil when
// the disk holds no such page.
func (d *Disk) locate(id PageID) (page, sum []byte) {
	fl := d.file(id.File)
	if fl == nil || id.Page < 0 || int(id.Page) >= fl.pages {
		return nil, nil
	}
	ext, k := fl.extents[id.Page/extentPages], int(id.Page%extentPages)
	off := extentPages*d.pageSize + 4*k
	return ext[k*d.pageSize : (k+1)*d.pageSize], ext[off : off+4]
}

// AllocPage appends a fresh zeroed page to the file and returns its id.
// Page allocation itself is not counted as I/O; the subsequent write is.
func (d *Disk) AllocPage(f FileID) (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.file(f) == nil {
		return PageID{}, fmt.Errorf("storage: unknown file %d", f)
	}
	return d.grow(f), nil
}

// NumPages returns the number of pages in file f.
func (d *Disk) NumPages(f FileID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if fl := d.file(f); fl != nil {
		return fl.pages
	}
	return 0
}

// ReadPageInto copies the page's content into buf, verifies it against the
// checksum recorded at the last write (the media scrub), and counts one
// physical read.
func (d *Disk) ReadPageInto(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	page, sum := d.locate(id)
	if page == nil {
		return fmt.Errorf("storage: read of invalid page %v", id)
	}
	if len(buf) != d.pageSize {
		return fmt.Errorf("storage: read of %d-byte page into %d bytes", d.pageSize, len(buf))
	}
	d.reads.Add(1)
	copy(buf, page)
	if want, got := binary.LittleEndian.Uint32(sum), PageChecksum(buf); got != want {
		return &ChecksumError{Page: id, Want: want, Got: got}
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
	page, sum := d.locate(id)
	if page == nil {
		return fmt.Errorf("storage: write of invalid page %v", id)
	}
	if len(buf) != d.pageSize {
		return fmt.Errorf("storage: write of %d bytes to %d-byte page", len(buf), d.pageSize)
	}
	d.writes.Add(1)
	copy(page, buf)
	binary.LittleEndian.PutUint32(sum, PageChecksum(buf))
	return nil
}

// Checksum returns the page's recorded CRC-32C.
func (d *Disk) Checksum(id PageID) (uint32, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, sum := d.locate(id)
	if sum == nil {
		return 0, false
	}
	return binary.LittleEndian.Uint32(sum), true
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
