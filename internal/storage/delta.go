package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// A page-set image is the sparse cousin of a device image: instead of every
// page of every file, it carries a chosen set of pages plus the full
// contents of a few "authoritative" files (the write-ahead log, for a
// replication delta). It lives here for the same reason the device image
// does — it is physical I/O by definition, reading pages straight off the
// device and writing them straight onto a raw Disk.
//
// Stream layout (all integers little-endian):
//
//	magic "SJDPGS1\n" | u32 pageSize | u32 files
//	per file: u32 targetPages | u8 authoritative
//	u32 entries
//	per entry, sorted by (file, page): u32 file | u32 page | raw page
//	trailer: u32 CRC-32C (Castagnoli) of everything after the magic
//
// targetPages is the file's page count on the source device; the applier
// grows the destination file to at least that many pages. An authoritative
// file is reproduced exactly: every one of its destination pages not
// carried by an entry is zeroed, including pages beyond targetPages that
// the destination grew on its own. Non-authoritative files keep their
// existing content outside the shipped entries.
var pageSetMagic = []byte("SJDPGS1\n")

// ErrNotAPageSet reports that a stream does not begin with a page-set
// image header.
var ErrNotAPageSet = fmt.Errorf("storage: stream is not a page-set image")

// WritePageSetImage streams the chosen pages of dev to w: every page in
// pages whose file is not authoritative, plus every non-zero page of each
// authoritative file (zero pages are implied by the applier's zeroing
// pass). Duplicate entries in pages are shipped once. Returns the shipped
// counts split into set pages and authoritative-file pages.
func WritePageSetImage(w io.Writer, dev Device, pages []PageID, authoritative []FileID) (int, int, error) {
	fc, ok := dev.(imageFiles)
	if !ok {
		return 0, 0, fmt.Errorf("storage: device %T cannot enumerate its files for imaging", dev)
	}
	files := fc.Files()
	auth := make(map[FileID]bool, len(authoritative))
	for _, f := range authoritative {
		if int(f) >= files {
			return 0, 0, fmt.Errorf("storage: authoritative file %d beyond device's %d files", f, files)
		}
		auth[f] = true
	}

	// Build the final sorted entry list up front: set pages outside
	// authoritative files, deduplicated, then the non-zero pages of each
	// authoritative file.
	set := make([]PageID, 0, len(pages))
	seen := make(map[PageID]bool, len(pages))
	for _, id := range pages {
		if auth[id.File] || seen[id] {
			continue
		}
		if int(id.File) >= files || id.Page < 0 || int(id.Page) >= dev.NumPages(id.File) {
			return 0, 0, fmt.Errorf("storage: page %v outside device bounds", id)
		}
		seen[id] = true
		set = append(set, id)
	}
	setPages := len(set)
	authPages := 0
	zero := make([]byte, dev.PageSize())
	for f := 0; f < files; f++ {
		id := FileID(f)
		if !auth[id] {
			continue
		}
		for p := 0; p < dev.NumPages(id); p++ {
			pid := PageID{File: id, Page: int32(p)}
			buf, err := ReadPage(dev, pid)
			if err != nil {
				return 0, 0, fmt.Errorf("storage: imaging page %v: %w", pid, err)
			}
			if bytes.Equal(buf, zero) {
				continue
			}
			set = append(set, pid)
			authPages++
		}
	}
	sort.Slice(set, func(i, j int) bool {
		if set[i].File != set[j].File {
			return set[i].File < set[j].File
		}
		return set[i].Page < set[j].Page
	})

	crc := uint32(0)
	emit := func(buf []byte) error {
		crc = crc32.Update(crc, crcTable, buf)
		_, err := w.Write(buf)
		return err
	}
	if _, err := w.Write(pageSetMagic); err != nil {
		return 0, 0, err
	}
	var u32 [4]byte
	putU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(u32[:], v)
		return emit(u32[:])
	}
	if err := putU32(uint32(dev.PageSize())); err != nil {
		return 0, 0, err
	}
	if err := putU32(uint32(files)); err != nil {
		return 0, 0, err
	}
	for f := 0; f < files; f++ {
		if err := putU32(uint32(dev.NumPages(FileID(f)))); err != nil {
			return 0, 0, err
		}
		flag := []byte{0}
		if auth[FileID(f)] {
			flag[0] = 1
		}
		if err := emit(flag); err != nil {
			return 0, 0, err
		}
	}
	if err := putU32(uint32(len(set))); err != nil {
		return 0, 0, err
	}
	for _, pid := range set {
		if err := putU32(uint32(pid.File)); err != nil {
			return 0, 0, err
		}
		if err := putU32(uint32(pid.Page)); err != nil {
			return 0, 0, err
		}
		buf, err := ReadPage(dev, pid)
		if err != nil {
			return 0, 0, fmt.Errorf("storage: imaging page %v: %w", pid, err)
		}
		if err := emit(buf); err != nil {
			return 0, 0, err
		}
	}
	binary.LittleEndian.PutUint32(u32[:], crc)
	if _, err := w.Write(u32[:]); err != nil {
		return 0, 0, err
	}
	return setPages, authPages, nil
}

// ApplyPageSetImage patches disk in place from a page-set image stream:
// files are created and grown to the declared targets, every page of each
// authoritative file is zeroed (so unshipped pages read as empty rather
// than stale), and the shipped pages are written over the top. The trailer
// checksum is verified before the first byte is applied would be ideal, but
// the stream is applied as it is read for memory's sake — on checksum
// failure the disk must be discarded, and the error says so. Returns the
// shipped counts split into set pages and authoritative-file pages.
func ApplyPageSetImage(r io.Reader, disk *Disk) (int, int, error) {
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil || !bytes.Equal(m[:], pageSetMagic) {
		return 0, 0, ErrNotAPageSet
	}
	crc := uint32(0)
	var u32 [4]byte
	getU32 := func() (uint32, error) {
		if _, err := io.ReadFull(r, u32[:]); err != nil {
			return 0, fmt.Errorf("storage: truncated page-set image: %w", err)
		}
		crc = crc32.Update(crc, crcTable, u32[:])
		return binary.LittleEndian.Uint32(u32[:]), nil
	}
	pageSize, err := getU32()
	if err != nil {
		return 0, 0, err
	}
	if int(pageSize) != disk.PageSize() {
		return 0, 0, fmt.Errorf("storage: page-set image page size %d != device's %d", pageSize, disk.PageSize())
	}
	files, err := getU32()
	if err != nil {
		return 0, 0, err
	}
	if files > 1<<20 {
		return 0, 0, fmt.Errorf("storage: page-set image declares %d files", files)
	}
	targets := make([]uint32, files)
	authFlags := make([]bool, files)
	var flag [1]byte
	for f := range targets {
		if targets[f], err = getU32(); err != nil {
			return 0, 0, err
		}
		if _, err := io.ReadFull(r, flag[:]); err != nil {
			return 0, 0, fmt.Errorf("storage: truncated page-set image: %w", err)
		}
		crc = crc32.Update(crc, crcTable, flag[:])
		authFlags[f] = flag[0] != 0
	}
	// Grow the disk to cover the declared geometry, then blank the
	// authoritative files end to end — including any pages the destination
	// has beyond the target, which would otherwise survive as stale content.
	zero := make([]byte, pageSize)
	for f := range targets {
		id := FileID(f)
		for disk.Files() <= f {
			disk.CreateFile()
		}
		for disk.NumPages(id) < int(targets[f]) {
			if _, err := disk.AllocPage(id); err != nil {
				return 0, 0, err
			}
		}
		if !authFlags[f] {
			continue
		}
		for p := 0; p < disk.NumPages(id); p++ {
			if err := disk.WritePage(PageID{File: id, Page: int32(p)}, zero); err != nil {
				return 0, 0, err
			}
		}
	}
	entries, err := getU32()
	if err != nil {
		return 0, 0, err
	}
	buf := make([]byte, pageSize)
	setPages, authPages := 0, 0
	prev := PageID{File: -1, Page: -1}
	for i := uint32(0); i < entries; i++ {
		fv, err := getU32()
		if err != nil {
			return 0, 0, err
		}
		pv, err := getU32()
		if err != nil {
			return 0, 0, err
		}
		if fv >= files || pv >= uint32(disk.NumPages(FileID(fv))) {
			return 0, 0, fmt.Errorf("storage: page-set entry f%d:p%d outside declared geometry", fv, pv)
		}
		pid := PageID{File: FileID(fv), Page: int32(pv)}
		if pid.File < prev.File || (pid.File == prev.File && pid.Page <= prev.Page) {
			return 0, 0, fmt.Errorf("storage: page-set entries out of order at %v", pid)
		}
		prev = pid
		if _, err := io.ReadFull(r, buf); err != nil {
			return 0, 0, fmt.Errorf("storage: truncated page-set image: %w", err)
		}
		crc = crc32.Update(crc, crcTable, buf)
		if err := disk.WritePage(pid, buf); err != nil {
			return 0, 0, err
		}
		if authFlags[fv] {
			authPages++
		} else {
			setPages++
		}
	}
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return 0, 0, fmt.Errorf("storage: page-set image missing trailer: %w", err)
	}
	if binary.LittleEndian.Uint32(u32[:]) != crc {
		return 0, 0, fmt.Errorf("storage: page-set image checksum mismatch (torn or corrupted stream; discard the device)")
	}
	return setPages, authPages, nil
}
