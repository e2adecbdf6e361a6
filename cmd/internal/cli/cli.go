// Package cli holds what the spatialjoin commands share: serving a metrics
// registry, writing and seeding from snapshot files, the injected crash →
// recover cycle, and loading rectangles into collections. Flags stay in
// each command: the same name does not always mean the same thing or take
// the same default there.
package cli

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"time"

	"spatialjoin"
	"spatialjoin/internal/fault"
	"spatialjoin/internal/obs"
)

// ServeMetrics serves reg's /metrics, /debug/vars and pprof on addr (port
// 0 picks a free port) and prints the bound address to out. An empty addr
// serves nothing. The returned stop is always safe to call; serve and
// close errors go to stderr under prog's name.
func ServeMetrics(out io.Writer, prog, addr string, reg *obs.Registry) (stop func(), err error) {
	if addr == "" {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "metrics: serving http://%s/metrics\n", ln.Addr())
	srv := &http.Server{Handler: obs.NewMux(reg)}
	go func() {
		if serr := srv.Serve(ln); serr != nil && serr != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "%s: metrics server: %v\n", prog, serr)
		}
	}()
	return func() {
		if cerr := srv.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "%s: closing metrics server: %v\n", prog, cerr)
		}
	}, nil
}

// Linger keeps a completed run's metrics served for d (-serve-for), so a
// scraper can read the final counts. Without a metrics address it returns
// at once.
func Linger(addr string, d time.Duration) {
	if addr != "" && d > 0 {
		time.Sleep(d)
	}
}

// ExportSnapshotFile atomically writes a snapshot of db to path: to a temp
// file first, fsynced, then renamed into place, so the published path only
// ever names a stream whose bytes (integrity trailer included) are on
// stable storage. Without the fsync the rename can land before the data
// does, and a crash leaves a torn snapshot at the published path. A failed
// export leaves nothing behind.
func ExportSnapshotFile(db *spatialjoin.Database, path string) (spatialjoin.SnapshotInfo, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return spatialjoin.SnapshotInfo{}, err
	}
	info, err := db.ExportSnapshot(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return spatialjoin.SnapshotInfo{}, err
	}
	return info, nil
}

// SeedFromFile opens a database seeded from the snapshot file at path.
func SeedFromFile(cfg spatialjoin.Config, path string) (*spatialjoin.Database, spatialjoin.SnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, spatialjoin.SnapshotInfo{}, err
	}
	defer f.Close()
	db, info, err := spatialjoin.SeedFromSnapshot(cfg, f)
	if err != nil {
		return nil, info, fmt.Errorf("seeding from %s: %w", path, err)
	}
	return db, info, nil
}

// CatchCrash runs load on db, whose device crashes after crashAt physical
// page writes when crashAt > 0 (db needs Config.Fault). It reports whether
// the injected crash cut load short, printing the crash to out; any other
// panic propagates.
func CatchCrash(out io.Writer, db *spatialjoin.Database, crashAt int64, load func() error) (crashed bool, err error) {
	if crashAt > 0 {
		db.FaultDisk().SetCrashAfterWrites(crashAt)
	}
	defer func() {
		if v := recover(); v != nil {
			c, ok := fault.AsCrash(v)
			if !ok {
				panic(v)
			}
			fmt.Fprintf(out, "crash: %v\n", c)
			crashed = true
		}
	}()
	return false, load()
}

// Recover reboots db's device if it crashed, reopens a database on it under
// cfg, and prints the recovery ledger to out.
func Recover(out io.Writer, cfg spatialjoin.Config, db *spatialjoin.Database) (*spatialjoin.Database, error) {
	if fd := db.FaultDisk(); fd.Crashed() {
		fd.Reboot()
	}
	rdb, stats, err := spatialjoin.Reopen(cfg, db.Device())
	if err != nil {
		return nil, fmt.Errorf("recovering: %w", err)
	}
	fmt.Fprintf(out, "recovery: %d log pages read from page %d, %d records scanned, %d replayed onto %d pages, %d skipped below checkpoint %d, %d txns committed, %d discarded, %d torn tail bytes (%d torn pages)\n",
		stats.LogPagesRead, stats.HeadPage, stats.RecordsScanned, stats.RecordsReplayed, stats.PagesRestored,
		stats.RecordsSkipped, stats.CheckpointLSN,
		stats.TxnsCommitted, stats.TxnsDiscarded, stats.TornTailBytes, stats.TornPages)
	return rdb, nil
}

// Load creates the collection name and inserts rects into it.
func Load(db *spatialjoin.Database, name string, rects []spatialjoin.Rect) (*spatialjoin.Collection, error) {
	col, err := db.CreateCollection(name)
	if err != nil {
		return nil, err
	}
	return col, Insert(col, rects)
}

// Insert inserts rects into col in order, each with an empty payload (one
// transaction each under a WAL).
func Insert(col *spatialjoin.Collection, rects []spatialjoin.Rect) error {
	for _, r := range rects {
		if _, err := col.Insert(r, ""); err != nil {
			return err
		}
	}
	return nil
}

// Fingerprint hashes the collections' geometry in id order, so a seeded
// replica can be checked for byte-identity against its source from a
// startup banner alone.
func Fingerprint(cols ...*spatialjoin.Collection) (uint64, error) {
	h := fnv.New64a()
	var buf [32]byte
	for _, c := range cols {
		for id := 0; id < c.Len(); id++ {
			shape, _, err := c.Get(id)
			if err != nil {
				return 0, err
			}
			b := shape.Bounds()
			binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(b.MinX))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(b.MinY))
			binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(b.MaxX))
			binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(b.MaxY))
			h.Write(buf[:])
		}
	}
	return h.Sum64(), nil
}
