package storage

import (
	"fmt"

	"spatialjoin/internal/obs"
)

// RID is a record identifier: the page and slot where the record lives.
type RID struct {
	Page PageID
	Slot int32
}

// String implements fmt.Stringer.
func (r RID) String() string { return fmt.Sprintf("%v:s%d", r.Page, r.Slot) }

// HeapFile stores variable-length records in slotted pages of one file,
// appending to the last page and allocating a new page when a record does
// not fit. A fill factor below 1 reproduces the paper's average space
// utilization l (Table 3: 0.75) by capping how much of each page's payload
// may be used.
type HeapFile struct {
	pool       *BufferPool
	file       FileID
	fillFactor float64
	lastPage   PageID
	hasPage    bool
	numRecords int
}

// NewHeapFile creates an empty heap file on the pool's disk. fillFactor must
// be in (0, 1]; records are placed on a page only while the page's used
// payload stays below fillFactor × page size.
func NewHeapFile(pool *BufferPool, fillFactor float64) (*HeapFile, error) {
	if fillFactor <= 0 || fillFactor > 1 {
		return nil, fmt.Errorf("storage: fill factor %g out of (0,1]", fillFactor)
	}
	return &HeapFile{
		pool:       pool,
		file:       pool.Disk().CreateFile(),
		fillFactor: fillFactor,
	}, nil
}

// OpenHeapFile reattaches to an existing heap file after a restart,
// rebuilding the append state (last page, record count) from the pages on
// disk. A page whose header is all zeroes was allocated but never written
// back before a crash; it holds no committed records and appends resume on
// the last initialized page before it.
func OpenHeapFile(pool *BufferPool, file FileID, fillFactor float64) (*HeapFile, error) {
	if fillFactor <= 0 || fillFactor > 1 {
		return nil, fmt.Errorf("storage: fill factor %g out of (0,1]", fillFactor)
	}
	h := &HeapFile{pool: pool, file: file, fillFactor: fillFactor}
	n := pool.Disk().NumPages(file)
	for pg := 0; pg < n; pg++ {
		id := PageID{File: file, Page: int32(pg)}
		if err := pool.Read(id, nil, func(p *Page) error {
			if p.initialized() {
				h.lastPage, h.hasPage = id, true
				h.numRecords += p.NumRecords()
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// File returns the underlying file id.
func (h *HeapFile) File() FileID { return h.file }

// NumRecords returns the number of records appended so far.
func (h *HeapFile) NumRecords() int { return h.numRecords }

// NumPages returns the number of pages the file occupies.
func (h *HeapFile) NumPages() int { return h.pool.Disk().NumPages(h.file) }

// budget returns the payload budget per page under the fill factor.
func (h *HeapFile) budget() int {
	return int(h.fillFactor * float64(h.pool.Disk().PageSize()-pageHeaderSize))
}

// CheckRecord rejects a record of n bytes that no page could hold under
// the fill factor's budget, as Append would.
func (h *HeapFile) CheckRecord(n int) error {
	if n+slotSize > h.budget() {
		return fmt.Errorf("storage: record of %d bytes exceeds page budget %d", n, h.budget())
	}
	return nil
}

// Append stores rec and returns its RID. Records larger than the per-page
// budget are rejected (CheckRecord).
func (h *HeapFile) Append(rec []byte) (RID, error) {
	if err := h.CheckRecord(len(rec)); err != nil {
		return RID{}, err
	}
	if h.hasPage {
		rid, ok, err := h.insertInto(h.lastPage, rec, false)
		if err != nil || ok {
			return rid, err
		}
	}
	id, err := h.pool.Disk().AllocPage(h.file)
	if err != nil {
		return RID{}, err
	}
	h.lastPage, h.hasPage = id, true
	rid, _, err := h.insertInto(id, rec, true)
	return rid, err
}

// insertInto stores rec on the page, in one BufferPool.Write, if it fits
// under the fill-factor budget, reporting ok = false when it does not. A
// fresh page — just allocated, so it arrives zeroed — has its header
// initialized in place first, and a record that does not fit it is an
// error.
func (h *HeapFile) insertInto(id PageID, rec []byte, fresh bool) (rid RID, ok bool, err error) {
	err = h.pool.Write(id, func(p *Page) (int, error) {
		if fresh {
			p.init()
		} else if h.usedPayload(p)+len(rec)+slotSize > h.budget() || p.FreeSpace() < len(rec) {
			return -1, nil
		}
		slot, err := p.Insert(rec)
		if err != nil {
			if err == ErrPageFull && !fresh {
				return -1, nil
			}
			return -1, err
		}
		rid, ok = RID{Page: id, Slot: int32(slot)}, true
		return slot, nil
	})
	if ok {
		h.numRecords++
	}
	return rid, ok, err
}

// usedPayload returns the bytes of payload (records + slots) in use on p.
func (h *HeapFile) usedPayload(p *Page) int {
	return (p.free() - pageHeaderSize) + p.NumRecords()*slotSize
}

// Read calls f with the record at rid in one access to its page through
// the buffer pool (BufferPool.Read, charging a miss to reads). The bytes
// are the page's own, valid only during the call: f copies out what it
// keeps and must not call into the pool.
func (h *HeapFile) Read(rid RID, reads *obs.Counter, f func(rec []byte) error) error {
	return h.pool.Read(rid.Page, reads, func(p *Page) error {
		rec, err := p.Record(int(rid.Slot))
		if err != nil {
			return err
		}
		return f(rec)
	})
}

// Demote tells the pool the file's page is read out (BufferPool.Demote).
func (h *HeapFile) Demote(page int) { h.pool.Demote(PageID{File: h.file, Page: int32(page)}) }

// Scan calls f for every record in file order. Scanning reads each page
// once (BufferPool.Read, charging no query) and visits its records under
// the pool's lock. f receives the RID and the raw record bytes (valid only
// during the call) and must not call into the pool; returning false stops
// the scan.
func (h *HeapFile) Scan(f func(RID, []byte) bool) error {
	n := h.NumPages()
	stop := false
	for pg := 0; pg < n && !stop; pg++ {
		id := PageID{File: h.file, Page: int32(pg)}
		if err := h.pool.Read(id, nil, func(p *Page) error {
			for s := 0; s < p.NumRecords(); s++ {
				rec, err := p.Record(s)
				if err != nil {
					return err
				}
				if !f(RID{Page: id, Slot: int32(s)}, rec) {
					stop = true
					return nil
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}
