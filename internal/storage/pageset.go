package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// A page set is the one form in which pages travel between devices: the
// full snapshot that seeds a replica and the delta that catches one up are
// both page sets, differing only in which pages they select. It lives in
// the storage layer because it is physical I/O by definition — pages are
// read straight off the device and written straight onto a raw Disk before
// any pool or recovery runs over it.
//
// Stream layout (all integers little-endian):
//
//	header:  u32 pageSize | u32 files
//	         per file: u32 pages | u8 whole
//	         u32 entries | u32 CRC-32C of the caller's header and the above
//	entries: per entry, sorted by (file, page): u32 file | u32 page | raw page
//	trailer: u32 CRC-32C of the caller's header, the header and the entries
//
// pages is the file's page count on the source; the applier grows the
// destination file to at least that many. A whole file is reproduced
// exactly: it is cut to that many pages, and every one of them that no
// entry carries reads as zero afterwards, so its zero pages — and its dead
// pages below the first live one — travel as implied zeros. Other files
// keep their content outside the shipped entries.
//
// The header has a checksum of its own so that the applier trusts no
// declared geometry — no file to create, no page to allocate or zero —
// before it has verified every byte of it.

// maxFiles bounds the declared file count, which sizes the geometry the
// applier reads before it can check the header's checksum.
const maxFiles = 1 << 20

// WritePageSet streams a page set of dev to w and returns the pages it
// carries, in stream order. whole names the files that travel whole and the
// first live page of each: every non-zero page of such a file from that
// page on is shipped. Of pages, those outside whole files are shipped too,
// once each. hdr is the caller's header, already written ahead of the page
// set; both checksums cover it, so it needs none of its own.
func WritePageSet(w io.Writer, dev Device, hdr []byte, pages []PageID, whole func(FileID) (from int32, ok bool)) ([]PageID, error) {
	files := dev.Files()
	le := binary.LittleEndian
	head := le.AppendUint32(nil, uint32(dev.PageSize()))
	head = le.AppendUint32(head, uint32(files))
	counts := make([]int, files)
	isWhole := make([]bool, files)
	var set []PageID
	buf := make([]byte, dev.PageSize())
	zero := make([]byte, dev.PageSize())
	for f := range counts {
		id := FileID(f)
		counts[f] = dev.NumPages(id)
		from, ok := whole(id)
		isWhole[f] = ok
		head = le.AppendUint32(head, uint32(counts[f]))
		if !ok {
			head = append(head, 0)
			continue
		}
		head = append(head, 1)
		for p := from; int(p) < counts[f]; p++ {
			pid := PageID{File: id, Page: p}
			if err := dev.ReadPageInto(pid, buf); err != nil {
				return nil, fmt.Errorf("storage: imaging page %v: %w", pid, err)
			}
			if !bytes.Equal(buf, zero) {
				set = append(set, pid)
			}
		}
	}
	seen := make(map[PageID]bool, len(pages))
	for _, id := range pages {
		if id.File < 0 || int(id.File) >= files || id.Page < 0 || int(id.Page) >= counts[id.File] {
			return nil, fmt.Errorf("storage: page %v outside device bounds", id)
		}
		if !isWhole[id.File] && !seen[id] {
			seen[id] = true
			set = append(set, id)
		}
	}
	sort.Slice(set, func(i, j int) bool {
		if set[i].File != set[j].File {
			return set[i].File < set[j].File
		}
		return set[i].Page < set[j].Page
	})

	head = le.AppendUint32(head, uint32(len(set)))
	crc := crc32.Update(crc32.Update(0, crcTable, hdr), crcTable, head)
	if _, err := w.Write(le.AppendUint32(head, crc)); err != nil {
		return nil, err
	}
	var entry [8]byte
	for _, pid := range set {
		le.PutUint32(entry[0:], uint32(pid.File))
		le.PutUint32(entry[4:], uint32(pid.Page))
		if err := dev.ReadPageInto(pid, buf); err != nil {
			return nil, fmt.Errorf("storage: imaging page %v: %w", pid, err)
		}
		crc = crc32.Update(crc32.Update(crc, crcTable, entry[:]), crcTable, buf)
		if _, err := w.Write(entry[:]); err != nil {
			return nil, err
		}
		if _, err := w.Write(buf); err != nil {
			return nil, err
		}
	}
	if _, err := w.Write(le.AppendUint32(nil, crc)); err != nil {
		return nil, err
	}
	return set, nil
}

// ApplyPageSet patches disk in place from a page-set stream and returns the
// pages it carried and, per file, whether it travelled whole. Nothing
// touches the disk until the header's checksum holds; then files are
// created and sized to the declared geometry — whole files exactly, others
// grown to at least it — every page of each whole file is zeroed, and the
// entries are written over the top as they arrive. The trailer is checked last, so on any error after
// the header the disk is half-patched and must be discarded. hdr is the
// caller's header, as it was given to WritePageSet.
func ApplyPageSet(r io.Reader, disk *Disk, hdr []byte) ([]PageID, []bool, error) {
	le := binary.LittleEndian
	var head bytes.Buffer
	if _, err := io.CopyN(&head, r, 8); err != nil {
		return nil, nil, fmt.Errorf("storage: truncated snapshot header: %w", err)
	}
	files := le.Uint32(head.Bytes()[4:])
	if files > maxFiles {
		return nil, nil, fmt.Errorf("storage: snapshot declares %d files", files)
	}
	if _, err := io.CopyN(&head, r, 5*int64(files)+8); err != nil {
		return nil, nil, fmt.Errorf("storage: truncated snapshot header: %w", err)
	}
	b := head.Bytes()
	end := len(b) - 4
	crc := crc32.Update(crc32.Update(0, crcTable, hdr), crcTable, b[:end])
	if le.Uint32(b[end:]) != crc {
		return nil, nil, fmt.Errorf("storage: snapshot header checksum mismatch")
	}
	if ps := le.Uint32(b); int(ps) != disk.PageSize() {
		return nil, nil, fmt.Errorf("storage: snapshot page size %d != device's %d", ps, disk.PageSize())
	}
	geometry := b[8:end]
	target := func(f uint32) int { return int(le.Uint32(geometry[5*f:])) }

	zero := make([]byte, disk.PageSize())
	whole := make([]bool, files)
	for f := uint32(0); f < files; f++ {
		id := FileID(f)
		for disk.Files() <= int(f) {
			disk.CreateFile()
		}
		had, size := disk.NumPages(id), max(disk.NumPages(id), target(f))
		if whole[f] = geometry[5*f+4] != 0; whole[f] {
			size = target(f)
		}
		disk.resize(id, size)
		if !whole[f] {
			continue
		}
		// Freshly allocated pages are zero already; only what the disk
		// held before can be stale.
		for p := 0; p < min(had, size); p++ {
			if err := disk.WritePage(PageID{File: id, Page: int32(p)}, zero); err != nil {
				return nil, nil, err
			}
		}
	}

	var shipped []PageID
	var entry [8]byte
	buf := make([]byte, disk.PageSize())
	for i := le.Uint32(geometry[5*files:]); i > 0; i-- {
		if _, err := io.ReadFull(r, entry[:]); err != nil {
			return nil, nil, fmt.Errorf("storage: truncated snapshot: %w", err)
		}
		fv, pv := le.Uint32(entry[0:]), le.Uint32(entry[4:])
		if fv >= files || int(pv) >= target(fv) {
			return nil, nil, fmt.Errorf("storage: snapshot entry f%d:p%d outside declared geometry", fv, pv)
		}
		pid := PageID{File: FileID(fv), Page: int32(pv)}
		if n := len(shipped); n > 0 && (pid.File < shipped[n-1].File ||
			pid.File == shipped[n-1].File && pid.Page <= shipped[n-1].Page) {
			return nil, nil, fmt.Errorf("storage: snapshot entries out of order at %v", pid)
		}
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, nil, fmt.Errorf("storage: truncated snapshot: %w", err)
		}
		crc = crc32.Update(crc32.Update(crc, crcTable, entry[:]), crcTable, buf)
		if err := disk.WritePage(pid, buf); err != nil {
			return nil, nil, err
		}
		shipped = append(shipped, pid)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, nil, fmt.Errorf("storage: snapshot missing trailer: %w", err)
	}
	if le.Uint32(trailer[:]) != crc {
		return nil, nil, fmt.Errorf("storage: snapshot checksum mismatch (torn or corrupted stream; discard the device)")
	}
	return shipped, whole, nil
}
