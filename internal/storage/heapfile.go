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
// appending to the last page and, when a record does not fit, to a new
// page the pool makes without a device read. A fill factor below 1
// reproduces the paper's average space utilization l (Table 3: 0.75) by
// capping how much of each page's payload may be used.
type HeapFile struct {
	pool       *BufferPool
	file       FileID
	fillFactor float64
	lastPage   PageID
	hasPage    bool
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

// OpenHeapFile reattaches to an existing heap file after a restart, in one
// pass that reads each page once: it calls visit with every record in file
// order (the bytes valid only during the call, under the pool's lock, so
// visit must not call into the pool) and finds the last page to append to
// on the way. A page whose header is all zeroes was allocated but never
// written back before a crash; it holds no committed records and appends
// resume on the last initialized page before it. An error from visit stops
// the pass and is returned.
func OpenHeapFile(pool *BufferPool, file FileID, fillFactor float64, visit func(RID, []byte) error) (*HeapFile, error) {
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
			}
			for s := 0; s < p.NumRecords(); s++ {
				rec, err := p.Record(s)
				if err == nil {
					err = visit(RID{Page: id, Slot: int32(s)}, rec)
				}
				if err != nil {
					return err
				}
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
// budget are rejected (CheckRecord). A record that does not fit the last
// page goes on a new one (BufferPool.create), which becomes the last page
// once that first write has succeeded.
func (h *HeapFile) Append(rec []byte) (RID, error) {
	if err := h.CheckRecord(len(rec)); err != nil {
		return RID{}, err
	}
	if h.hasPage {
		rid, ok, err := h.insertInto(h.lastPage, rec)
		if err != nil || ok {
			return rid, err
		}
	}
	id, err := h.pool.create(h.file, func(p *Page) (int, error) { return p.Insert(rec) })
	if err != nil {
		return RID{}, err
	}
	h.lastPage, h.hasPage = id, true
	return RID{Page: id}, nil // a new page's first record is slot 0
}

// insertInto stores rec on the page, in one BufferPool.Write, if it fits
// under the fill-factor budget, reporting ok = false when it does not.
func (h *HeapFile) insertInto(id PageID, rec []byte) (rid RID, ok bool, err error) {
	err = h.pool.Write(id, func(p *Page) (int, error) {
		if h.usedPayload(p)+len(rec)+slotSize > h.budget() || p.FreeSpace() < len(rec) {
			return -1, nil
		}
		slot, err := p.Insert(rec)
		if err != nil {
			if err == ErrPageFull {
				return -1, nil
			}
			return -1, err
		}
		rid, ok = RID{Page: id, Slot: int32(slot)}, true
		return slot, nil
	})
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
