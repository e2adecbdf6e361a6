// Package rawdisk is a golden fixture for the rawdisk analyzer: physical
// page I/O is only legal inside internal/storage, where the BufferPool
// counts it.
package rawdisk

import (
	"spatialjoin/internal/fault"
	"spatialjoin/internal/storage"
)

func readRaw(d *storage.Disk, id storage.PageID) ([]byte, error) {
	return d.ReadPage(id) // want "raw storage.Disk.ReadPage bypasses BufferPool"
}

func writeRaw(d *storage.Disk, id storage.PageID, buf []byte) error {
	return d.WritePage(id, buf) // want "raw storage.Disk.WritePage bypasses BufferPool"
}

// mediated is the approved path: every access goes through the pool.
func mediated(bp *storage.BufferPool, id storage.PageID) error {
	_, err := bp.Fetch(id)
	return err
}

// allocOnly is fine: allocation is not a counted transfer.
func allocOnly(d *storage.Disk, f storage.FileID) (storage.PageID, error) {
	return d.AllocPage(f)
}

func suppressed(d *storage.Disk, id storage.PageID) ([]byte, error) {
	//sjlint:ignore rawdisk fixture demonstrates suppression syntax
	return d.ReadPage(id)
}

// readThroughInterface is just as raw: hiding the device behind the Device
// interface must not defeat the accounting invariant.
func readThroughInterface(dev storage.Device, id storage.PageID, buf []byte) error {
	return dev.ReadPageInto(id, buf) // want "raw storage.Device.ReadPageInto bypasses BufferPool"
}

// readThroughHelper allocates the buffer but transfers the page all the
// same.
func readThroughHelper(dev storage.Device, id storage.PageID) ([]byte, error) {
	return storage.ReadPage(dev, id) // want "raw storage.ReadPage bypasses BufferPool"
}

// readFaultDisk reads through the fault-injecting wrapper.
func readFaultDisk(d *fault.Disk, id storage.PageID, buf []byte) error {
	return d.ReadPageInto(id, buf) // want "raw fault.Disk.ReadPageInto bypasses BufferPool"
}

// writeFaultDisk hits the fault-injecting wrapper directly, skipping the
// pool's retry policy and checksum verification along with the counters.
func writeFaultDisk(d *fault.Disk, id storage.PageID, buf []byte) error {
	return d.WritePage(id, buf) // want "raw fault.Disk.WritePage bypasses BufferPool"
}

// interfaceAccounting is fine: Stats and NumPages transfer no pages.
func interfaceAccounting(dev storage.Device, f storage.FileID) (int, storage.DiskStats) {
	return dev.NumPages(f), dev.Stats()
}
