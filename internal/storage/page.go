// Package storage simulates the disk subsystem of the paper's cost model: a
// paged "disk", slotted pages, and an LRU buffer pool of M pages with
// physical-I/O accounting. The join strategies run on top of this layer so
// that the number of page accesses they incur can be measured and compared
// against the analytical model (parameters s, l, M, C_IO of Table 2).
//
// The simulation stores real bytes: records written through a HeapFile are
// durable on the simulated disk and survive buffer-pool eviction, which
// keeps the executors honest about what re-reading a page costs. A new
// page is made in a pool frame, not read: the device promises it zeroed.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// DefaultPageSize is the paper's disk-page size s (Table 3: 2000 bytes).
const DefaultPageSize = 2000

// pageHeaderSize is the fixed header of a slotted page: record count (2) and
// free-space offset (2).
const pageHeaderSize = 4

// slotSize is the per-record slot entry: record offset (2) and length (2).
const slotSize = 4

// ErrPageFull is returned by Page.Insert when the record does not fit.
var ErrPageFull = errors.New("storage: page full")

// Page is a slotted data page. Records grow from the front of the payload
// area; the slot directory grows from the back. The layout is:
//
//	[count u16][free u16][record 0][record 1]... ...[slot 1][slot 0]
type Page struct {
	buf []byte
}

// NewPage returns an empty page of the given size. Sizes below 64 bytes are
// rejected to keep the header/slot arithmetic meaningful.
func NewPage(size int) (*Page, error) {
	if size < 64 {
		return nil, fmt.Errorf("storage: page size %d too small", size)
	}
	p := &Page{buf: make([]byte, size)}
	p.init()
	return p, nil
}

// init writes the header of an empty slotted page over whatever the buffer
// held.
func (p *Page) init() {
	p.setCount(0)
	p.setFree(pageHeaderSize)
}

// Bytes returns the raw page image.
func (p *Page) Bytes() []byte { return p.buf }

// Size returns the page size in bytes.
func (p *Page) Size() int { return len(p.buf) }

func (p *Page) count() int      { return int(binary.LittleEndian.Uint16(p.buf[0:2])) }
func (p *Page) setCount(n int)  { binary.LittleEndian.PutUint16(p.buf[0:2], uint16(n)) }
func (p *Page) free() int       { return int(binary.LittleEndian.Uint16(p.buf[2:4])) }
func (p *Page) setFree(off int) { binary.LittleEndian.PutUint16(p.buf[2:4], uint16(off)) }

// slotPos returns the byte offset of slot i's directory entry.
func (p *Page) slotPos(i int) int { return len(p.buf) - (i+1)*slotSize }

// NumRecords returns the number of records stored on the page.
func (p *Page) NumRecords() int { return p.count() }

// initialized reports whether the page has ever held a slotted-page header:
// NewPage sets free to pageHeaderSize even on an empty page, so an
// all-zero header identifies a page that was allocated on the device but
// never written back (e.g. because a crash landed first).
func (p *Page) initialized() bool { return p.count() != 0 || p.free() != 0 }

// FreeSpace returns the number of payload bytes still available for one more
// record including its slot entry.
func (p *Page) FreeSpace() int {
	return p.slotPos(p.count()-1) - p.free() - slotSize
}

// Insert stores rec on the page and returns its slot number.
func (p *Page) Insert(rec []byte) (slot int, err error) {
	if len(rec) > p.FreeSpace() {
		return 0, ErrPageFull
	}
	if len(rec) > 0xFFFF {
		return 0, fmt.Errorf("storage: record of %d bytes exceeds slot capacity", len(rec))
	}
	off := p.free()
	copy(p.buf[off:], rec)
	slot = p.count()
	sp := p.slotPos(slot)
	binary.LittleEndian.PutUint16(p.buf[sp:], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[sp+2:], uint16(len(rec)))
	p.setFree(off + len(rec))
	p.setCount(slot + 1)
	return slot, nil
}

// Record returns the bytes of the record in the given slot. The returned
// slice aliases the page buffer, which the pool recycles: it is valid only
// inside the BufferPool.Read that passed the page, and callers that keep
// the bytes must copy.
func (p *Page) Record(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.count() {
		return nil, fmt.Errorf("storage: slot %d out of range (page has %d records)", slot, p.count())
	}
	sp := p.slotPos(slot)
	off := int(binary.LittleEndian.Uint16(p.buf[sp:]))
	n := int(binary.LittleEndian.Uint16(p.buf[sp+2:]))
	return p.buf[off : off+n], nil
}

// RedoAppend re-applies a logged slot append to a raw page image — the redo
// half of Page.Insert, which recovery calls with the very record bytes the
// forward path inserted, so the replayed page is byte-identical to the one
// the transaction built. An append at slot 0 starts the page's history over:
// the buffer is re-initialized to the empty page a fresh allocation holds
// before the record goes in, whatever it held before. A slot the page
// already has is a no-op (the device copy was newer than the record), which
// is what makes replay idempotent from any floor; applied reports whether
// the page changed. A slot beyond the next free one is a gap — the base is
// older than the record assumes — and is an error, as is a record the page
// has no room for.
func RedoAppend(buf []byte, slot int, rec []byte) (applied bool, err error) {
	p := Page{buf: buf}
	if slot == 0 {
		clear(buf)
		p.init()
	}
	switch n := p.count(); {
	case slot < n:
		return false, nil
	case slot > n:
		return false, fmt.Errorf("storage: redo of slot %d onto a page holding %d records leaves a gap", slot, n)
	}
	if _, err := p.Insert(rec); err != nil {
		return false, fmt.Errorf("storage: redo of slot %d: %w", slot, err)
	}
	return true, nil
}
