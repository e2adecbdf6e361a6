package fault

import (
	"sync"
	"sync/atomic"
	"time"

	"spatialjoin/internal/storage"
)

// Options configures a fault schedule. Rates are probabilities in [0, 1]
// evaluated independently per physical attempt, derived deterministically
// from Seed — two devices with the same Options replay the same schedule.
type Options struct {
	// Seed drives every schedule decision. Different seeds give
	// statistically independent schedules at the same rates.
	Seed int64
	// TransientReadRate is the probability a physical read attempt fails
	// with a retryable fault before touching the device.
	TransientReadRate float64
	// TransientWriteRate is the same for write attempts.
	TransientWriteRate float64
	// CorruptRate is the probability a successful read transfer is damaged
	// in flight: the call returns corrupted bytes and a nil error, and the
	// buffer pool's checksum verification must catch it.
	CorruptRate float64
	// ReadLatency is injected before every physical read attempt.
	ReadLatency time.Duration
	// WriteLatency is injected before every physical write attempt.
	WriteLatency time.Duration

	// sleep overrides time.Sleep in tests; nil means time.Sleep.
	sleep func(time.Duration)
}

// Disk wraps a storage.Device with the fault schedule described by Options,
// plus dynamically injected page states (lost, torn). It implements
// storage.Device and is safe for concurrent use.
//
// Fault accounting: injected failures count in DiskStats.ReadFaults /
// WriteFaults. A transiently failed attempt never reaches the inner device,
// so physical reads that moved data = inner Reads; total attempts =
// Reads + ReadFaults. A corrupted read did move data, so it counts in both
// Reads and ReadFaults.
type Disk struct {
	inner storage.Device
	opts  Options

	mu           sync.Mutex
	lost         map[storage.PageID]bool
	torn         map[storage.PageID]bool
	readAttempts map[storage.PageID]int64
	writeAttempt map[storage.PageID]int64
	crashAt      int64 // crash on this write-attempt ordinal; 0 = disarmed
	writeSeq     int64 // write attempts since the schedule was armed
	crashed      bool  // device is down until Reboot

	readFaults  atomic.Int64
	writeFaults atomic.Int64
}

var _ storage.Device = (*Disk)(nil)

// Salts decorrelate the independent decision streams drawn from one seed.
const (
	saltRead    = 0x72656164 // "read"
	saltWrite   = 0x77726974 // "writ"
	saltCorrupt = 0x636f7272 // "corr"
	saltBit     = 0x62697421 // "bit!"
)

// Wrap returns a fault-injecting view of inner under the given schedule.
func Wrap(inner storage.Device, opts Options) *Disk {
	return &Disk{
		inner:        inner,
		opts:         opts,
		lost:         make(map[storage.PageID]bool),
		torn:         make(map[storage.PageID]bool),
		readAttempts: make(map[storage.PageID]int64),
		writeAttempt: make(map[storage.PageID]int64),
	}
}

// LosePage marks a page permanently lost: every subsequent read or write
// fails with a Permanent *Error until HealPage.
func (d *Disk) LosePage(id storage.PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lost[id] = true
}

// HealPage clears a LosePage mark.
func (d *Disk) HealPage(id storage.PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.lost, id)
}

// TearPage marks a page torn: every subsequent read transfers with the same
// bit flipped, so checksum verification fails deterministically on each
// retry — the signature of data corrupted at rest rather than in flight.
func (d *Disk) TearPage(id storage.PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.torn[id] = true
}

// MendPage clears a TearPage mark.
func (d *Disk) MendPage(id storage.PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.torn, id)
}

// PageSize returns the inner device's page size.
func (d *Disk) PageSize() int { return d.inner.PageSize() }

// CreateFile allocates a file on the inner device.
func (d *Disk) CreateFile() storage.FileID { return d.inner.CreateFile() }

// AllocPage allocates a page on the inner device. Allocation is metadata,
// not a transfer; the schedule does not touch it.
func (d *Disk) AllocPage(f storage.FileID) (storage.PageID, error) { return d.inner.AllocPage(f) }

// NumPages returns the inner device's page count for f.
func (d *Disk) NumPages(f storage.FileID) int { return d.inner.NumPages(f) }

// Files returns the inner device's file count.
func (d *Disk) Files() int { return d.inner.Files() }

// DropFile drops a file on the inner device; like allocation it is
// metadata the schedule does not touch.
func (d *Disk) DropFile(f storage.FileID) error { return d.inner.DropFile(f) }

// Checksum returns the inner device's recorded checksum — the ground truth
// the buffer pool verifies transfers against, deliberately out of reach of
// the fault schedule.
func (d *Disk) Checksum(id storage.PageID) (uint32, bool) { return d.inner.Checksum(id) }

// ReadPageInto runs one physical read attempt through the schedule:
// injected latency, then possibly a transient failure (no transfer), a
// permanent failure (lost page), or a transfer into buf with in-flight or
// at-rest corruption.
func (d *Disk) ReadPageInto(id storage.PageID, buf []byte) error {
	d.pause(d.opts.ReadLatency)
	d.mu.Lock()
	d.readAttempts[id]++
	attempt := d.readAttempts[id]
	lost, torn := d.lost[id], d.torn[id]
	crashed := d.crashed
	d.mu.Unlock()

	if crashed {
		d.readFaults.Add(1)
		return &Error{Op: "read", Page: id, Kind: Permanent, Attempt: attempt,
			Err: errCrashed}
	}
	if lost {
		d.readFaults.Add(1)
		return &Error{Op: "read", Page: id, Kind: Permanent, Attempt: attempt}
	}
	if d.decide(saltRead, id, attempt, d.opts.TransientReadRate) {
		d.readFaults.Add(1)
		return &Error{Op: "read", Page: id, Kind: Transient, Attempt: attempt}
	}
	if err := d.inner.ReadPageInto(id, buf); err != nil {
		return err
	}
	if torn {
		d.readFaults.Add(1)
		flipBit(buf, 0) // same bit every read: corruption at rest
		return nil
	}
	if d.decide(saltCorrupt, id, attempt, d.opts.CorruptRate) {
		d.readFaults.Add(1)
		h := d.hash(saltBit, id, attempt)
		flipBit(buf, int(h%uint64(len(buf)*8)))
	}
	return nil
}

// WritePage runs one physical write attempt through the schedule. A
// successful write mends a torn page: fresh bytes replace the damaged
// sector, which is what lets recovery replay images over crash-torn pages.
func (d *Disk) WritePage(id storage.PageID, buf []byte) error {
	d.pause(d.opts.WriteLatency)
	d.mu.Lock()
	d.writeAttempt[id]++
	attempt := d.writeAttempt[id]
	lost := d.lost[id]
	if d.crashed {
		d.mu.Unlock()
		d.writeFaults.Add(1)
		return &Error{Op: "write", Page: id, Kind: Permanent, Attempt: attempt,
			Err: errCrashed}
	}
	if d.crashAt > 0 {
		d.writeSeq++
		if d.writeSeq >= d.crashAt {
			// The doomed write tears its page instead of completing and
			// takes the device down, simulating power loss mid-sector.
			d.torn[id] = true
			d.crashed = true
			n := d.writeSeq
			d.mu.Unlock()
			d.writeFaults.Add(1)
			panic(&Crash{Writes: n, Page: id})
		}
	}
	d.mu.Unlock()

	if lost {
		d.writeFaults.Add(1)
		return &Error{Op: "write", Page: id, Kind: Permanent, Attempt: attempt}
	}
	if d.decide(saltWrite, id, attempt, d.opts.TransientWriteRate) {
		d.writeFaults.Add(1)
		return &Error{Op: "write", Page: id, Kind: Transient, Attempt: attempt}
	}
	if err := d.inner.WritePage(id, buf); err != nil {
		return err
	}
	d.mu.Lock()
	delete(d.torn, id)
	d.mu.Unlock()
	return nil
}

// Stats merges the inner device's transfer counters with the injected
// fault counters.
func (d *Disk) Stats() storage.DiskStats {
	s := d.inner.Stats()
	s.ReadFaults += d.readFaults.Load()
	s.WriteFaults += d.writeFaults.Load()
	return s
}

// ResetStats zeroes both the inner counters and the fault counters. The
// per-page attempt indices are NOT reset: the schedule keeps advancing, so
// resetting statistics mid-run cannot replay the same faults.
func (d *Disk) ResetStats() {
	d.inner.ResetStats()
	d.readFaults.Store(0)
	d.writeFaults.Store(0)
}

// hash draws one 64-bit value from the (seed, salt, page, attempt) stream.
func (d *Disk) hash(salt uint64, id storage.PageID, attempt int64) uint64 {
	x := uint64(d.opts.Seed)
	x = mix64(x ^ salt)
	x = mix64(x ^ uint64(id.File)<<32 ^ uint64(uint32(id.Page)))
	x = mix64(x ^ uint64(attempt))
	return x
}

// decide reports whether this attempt is scheduled to fault at the given
// rate.
func (d *Disk) decide(salt uint64, id storage.PageID, attempt int64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := d.hash(salt, id, attempt)
	return float64(h>>11)/float64(1<<53) < rate
}

// pause injects device latency.
func (d *Disk) pause(t time.Duration) {
	if t <= 0 {
		return
	}
	if d.opts.sleep != nil {
		d.opts.sleep(t)
		return
	}
	time.Sleep(t)
}

// flipBit flips bit i (counting across the buffer) in place.
func flipBit(buf []byte, i int) {
	buf[i/8] ^= 1 << (i % 8)
}

// mix64 is the SplitMix64 finalizer, a cheap statistically strong mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
