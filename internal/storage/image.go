package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// A device image is the raw page-for-page serialization of a simulated
// disk — the payload a snapshot export ships to seed a replica. It lives in
// the storage layer because it is physical I/O by definition: every page is
// read straight off the device (the rawdisk lint confines that to here),
// and the receiving side materializes a fresh healthy Disk before any
// buffer pool or recovery logic runs over it.
//
// Stream layout (all integers little-endian):
//
//	magic "SJDIMG1\n" | u32 pageSize | u32 files
//	per file: u32 numPages, then numPages raw pages of pageSize bytes
//	trailer: u32 CRC-32C (Castagnoli) of everything after the magic
//
// The trailer checksum makes a torn or truncated stream — a crash mid-
// export, a short copy — fail loudly at import instead of seeding a
// replica from a silent prefix.
var imageMagic = []byte("SJDIMG1\n")

// ErrNotAnImage reports that a stream does not begin with a device-image
// header.
var ErrNotAnImage = fmt.Errorf("storage: stream is not a device image")

// imageFiles is the enumeration hook WriteDeviceImage needs; both Disk and
// fault.Disk provide it.
type imageFiles interface {
	Files() int
}

// WriteDeviceImage streams every page of every file of dev to w. The
// device must expose its file count via Files() (storage.Disk and
// fault.Disk both do). Returns the number of pages streamed.
func WriteDeviceImage(w io.Writer, dev Device) (int, error) {
	fc, ok := dev.(imageFiles)
	if !ok {
		return 0, fmt.Errorf("storage: device %T cannot enumerate its files for imaging", dev)
	}
	files := fc.Files()
	crc := uint32(0)
	emit := func(buf []byte) error {
		crc = crc32.Update(crc, crcTable, buf)
		_, err := w.Write(buf)
		return err
	}
	if _, err := w.Write(imageMagic); err != nil {
		return 0, err
	}
	var u32 [4]byte
	putU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(u32[:], v)
		return emit(u32[:])
	}
	if err := putU32(uint32(dev.PageSize())); err != nil {
		return 0, err
	}
	if err := putU32(uint32(files)); err != nil {
		return 0, err
	}
	pages := 0
	for f := 0; f < files; f++ {
		id := FileID(f)
		n := dev.NumPages(id)
		if err := putU32(uint32(n)); err != nil {
			return pages, err
		}
		for p := 0; p < n; p++ {
			buf, err := ReadPage(dev, PageID{File: id, Page: int32(p)})
			if err != nil {
				return pages, fmt.Errorf("storage: imaging page %d of file %d: %w", p, f, err)
			}
			if err := emit(buf); err != nil {
				return pages, err
			}
			pages++
		}
	}
	binary.LittleEndian.PutUint32(u32[:], crc)
	if _, err := w.Write(u32[:]); err != nil {
		return pages, err
	}
	return pages, nil
}

// ReadDeviceImage materializes a fresh healthy Disk from a device-image
// stream, verifying the trailer checksum before handing the disk over: a
// truncated or corrupted stream yields an error, never a partial replica.
func ReadDeviceImage(r io.Reader) (*Disk, error) {
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil || string(m[:]) != string(imageMagic) {
		return nil, ErrNotAnImage
	}
	crc := uint32(0)
	var u32 [4]byte
	getU32 := func() (uint32, error) {
		if _, err := io.ReadFull(r, u32[:]); err != nil {
			return 0, fmt.Errorf("storage: truncated device image: %w", err)
		}
		crc = crc32.Update(crc, crcTable, u32[:])
		return binary.LittleEndian.Uint32(u32[:]), nil
	}
	pageSize, err := getU32()
	if err != nil {
		return nil, err
	}
	if pageSize == 0 || pageSize > 1<<20 {
		return nil, fmt.Errorf("storage: device image page size %d out of range", pageSize)
	}
	files, err := getU32()
	if err != nil {
		return nil, err
	}
	disk := NewDisk(int(pageSize))
	buf := make([]byte, pageSize)
	for f := uint32(0); f < files; f++ {
		id := disk.CreateFile()
		n, err := getU32()
		if err != nil {
			return nil, err
		}
		for p := uint32(0); p < n; p++ {
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, fmt.Errorf("storage: truncated device image: %w", err)
			}
			crc = crc32.Update(crc, crcTable, buf)
			pid, err := disk.AllocPage(id)
			if err != nil {
				return nil, err
			}
			if err := disk.WritePage(pid, buf); err != nil {
				return nil, err
			}
		}
	}
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return nil, fmt.Errorf("storage: device image missing trailer: %w", err)
	}
	if binary.LittleEndian.Uint32(u32[:]) != crc {
		return nil, fmt.Errorf("storage: device image checksum mismatch (torn or corrupted stream)")
	}
	return disk, nil
}
