package spatialjoin

import (
	"errors"
	"fmt"

	"spatialjoin/internal/fault"
	"spatialjoin/internal/join"
	"spatialjoin/internal/joinindex"
	"spatialjoin/internal/pred"
	"spatialjoin/internal/relation"
	"spatialjoin/internal/rtree"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/wal"
)

// RecoveryStats summarizes what Reopen replayed and discarded.
type RecoveryStats = wal.RecoveryStats

// errClosed refuses work after an orderly Close.
var errClosed = errors.New("spatialjoin: database is closed")

// runTxn executes one atomic update. Without a WAL it just runs f. With one,
// it wraps f in
// begin/commit records: after f mutates pages in the buffer pool (where
// the no-steal discipline holds them back from the device), the write set
// the pool recorded — slot appends, or a page image where the log has no
// base for appends yet — and the commit record are appended to the log, the
// log is forced durable per the group-commit policy, and only then are the
// frames released for write-back. A crash at any point therefore leaves
// the device in either the pre- or the post-transaction committed state.
// An error from f aborts the transaction in the log and poisons the
// database — in-memory structures may hold half a transaction — and every
// later call is refused until the device is reopened through recovery.
//
// The transaction is registered in the active-transaction table from
// before its begin record until after its frames learn their covering LSN,
// under the same lock a checkpoint snapshots the table with: a fuzzy
// checkpoint therefore always either sees the transaction as active or
// sees its pages' redo floors, never neither.
func (db *Database) runTxn(f func(txn uint64) error) error {
	if db.poisoned != nil {
		return db.poisoned
	}
	if db.closed {
		return errClosed
	}
	if db.wal == nil {
		return f(0)
	}
	fault.CrashPoint("txn.begin")
	db.mu.Lock()
	txn := db.nextTxn
	db.nextTxn++
	beginLSN := db.wal.Begin(txn)
	db.activeTxns[txn] = beginLSN
	db.mu.Unlock()
	finish := func() {
		db.mu.Lock()
		delete(db.activeTxns, txn)
		db.mu.Unlock()
	}
	if err := f(txn); err != nil {
		db.wal.Abort(txn)
		finish()
		return db.poison(err)
	}
	fault.CrashPoint("txn.mutated")
	if err := db.pool.DrainWriteSet(func(w storage.PageWrite) error {
		return db.wal.AppendPageWrite(txn, w)
	}); err != nil {
		db.wal.Abort(txn)
		finish()
		return db.poison(err)
	}
	fault.CrashPoint("txn.images-logged")
	lsn, err := db.wal.Commit(txn)
	if err != nil {
		// The commit record is appended even when the sync behind it
		// failed; the transaction may be durable, so it must not be
		// aborted — recovery decides.
		finish()
		return db.poison(err)
	}
	// Only now, with the commit record (at least) appended, may the frames
	// learn their covering LSN: releasing them earlier would let an
	// eviction persist pages of a transaction that never commits. The
	// begin LSN rides along as the redo floor the dirty-page table reports.
	db.pool.CoverWriteSet(lsn, beginLSN)
	finish()
	fault.CrashPoint("txn.committed")
	return nil
}

// poison marks the database as needing recovery after a failed WAL
// transaction. It returns err unchanged so callers report the root cause.
func (db *Database) poison(err error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal != nil && db.poisoned == nil {
		db.poisoned = fmt.Errorf("spatialjoin: database needs recovery after a failed update: %w", err)
	}
	return err
}

// checkUsable refuses queries on a poisoned or closed database.
func (db *Database) checkUsable() error {
	if db.poisoned != nil {
		return db.poisoned
	}
	if db.closed {
		return errClosed
	}
	return nil
}

// Reopen recovers a database from a device that survived a crash: it scans
// the write-ahead log, discards the torn tail and every uncommitted
// transaction, redoes the page changes of committed transactions — bounded
// below by the last fuzzy checkpoint, whose dirty-page and
// active-transaction tables prove which older changes are already on the
// device — and rebuilds the in-memory catalog from the checkpoint's manifest
// and the scanned catalog records. Each collection's R-tree is rebuilt in the
// same single heap scan that reassigns its tuple IDs, and each join index is
// replayed from its pair file. cfg must have WAL set, pass the checks Open
// makes, and should otherwise match the crashed instance's configuration.
// The device is used as-is — pass the crashed database's Device() after
// rebooting any fault wrapper.
func Reopen(cfg Config, device storage.Device) (*Database, RecoveryStats, error) {
	return reopenWith(cfg, device, false, 0)
}

// ReopenAt recovers a replica device whose pages are trusted current up to
// applied: replay skips page records below that floor and replays everything at
// or above it unconditionally, never consulting the checkpoint dirty-page
// table (which describes the primary's flush state, not this device's).
// Pass the NextApplyFloor from the previous recovery's stats; a floor of 1
// replays the whole log, which is the safe choice for a freshly deltaed
// device whose page contents may predate any straddling transaction.
func ReopenAt(cfg Config, device storage.Device, applied wal.LSN) (*Database, RecoveryStats, error) {
	if applied < 1 {
		applied = 1
	}
	return reopenWith(cfg, device, false, applied)
}

// reopenWith is Reopen with the checkpoint switch and replay floor exposed:
// crash harnesses recover the same device twice — once bounded, once from
// LSN 0 — and assert both paths reconstruct identical state, and replicas
// reopen with an explicit floor instead of the checkpoint bound.
func reopenWith(cfg Config, device storage.Device, ignoreCheckpoints bool, applyFloor wal.LSN) (*Database, RecoveryStats, error) {
	var stats RecoveryStats
	if !cfg.WAL {
		return nil, stats, fmt.Errorf("spatialjoin: Reopen requires Config.WAL")
	}
	if err := cfg.validate(); err != nil {
		return nil, stats, err
	}
	if device.PageSize() != cfg.PageSize {
		return nil, stats, fmt.Errorf("spatialjoin: device page size %d != configured %d",
			device.PageSize(), cfg.PageSize)
	}
	// Replay runs on the raw device before the pool exists, so the pool
	// never caches pre-replay bytes.
	res, err := wal.RecoverWith(device, wal.Options{
		GroupCommit:       cfg.WALGroupCommit,
		IgnoreCheckpoints: ignoreCheckpoints,
		ApplyFloor:        applyFloor,
	})
	if res != nil {
		stats = res.Stats
	}
	if err != nil {
		return nil, stats, err
	}
	pool, err := storage.NewBufferPool(device, cfg.BufferPages)
	if err != nil {
		return nil, stats, err
	}
	if cfg.Retry != nil {
		pool.SetRetryPolicy(*cfg.Retry)
	}
	pool.SetWAL(res.Log)
	fd, _ := device.(*fault.Disk)
	db := &Database{
		cfg:         cfg,
		pool:        pool,
		faultDisk:   fd,
		wal:         res.Log,
		collections: make(map[string]*Collection),
		joinIndices: make(map[string]*JoinIndex),
		nextTxn:     stats.NextTxn,
		activeTxns:  make(map[uint64]wal.LSN),
	}
	// The manifest's registrations come first — truncation may have
	// destroyed their catalog records — then the scanned records add
	// post-checkpoint objects. Both reopen helpers skip names already
	// registered, so a surviving record for a manifest object is a no-op.
	for _, rec := range res.Catalog {
		switch rec.Type {
		case wal.RecNewCollection:
			nc, err := wal.DecodeNewCollection(rec.Data)
			if err != nil {
				return nil, stats, err
			}
			if err := db.reopenCollection(nc); err != nil {
				return nil, stats, fmt.Errorf("spatialjoin: recovering collection %q: %w", nc.Name, err)
			}
		case wal.RecNewJoinIndex:
			nj, err := wal.DecodeNewJoinIndex(rec.Data)
			if err != nil {
				return nil, stats, err
			}
			if err := db.reopenJoinIndex(nj); err != nil {
				return nil, stats, fmt.Errorf("spatialjoin: recovering join index %s ⋈ %s on %s: %w",
					nj.R, nj.S, nj.Operator, err)
			}
		}
	}
	db.recovered = stats
	db.registerMetrics()
	return db, stats, nil
}

// DurableLSN reports the log's durable end — the record-boundary LSN a
// replica resumes tailing from — or 0 when the database runs without a WAL.
func (db *Database) DurableLSN() wal.LSN {
	if db.wal == nil {
		return 0
	}
	return db.wal.DurableLSN()
}

// AppendRawWAL appends a chunk of raw log records whose stream offset is
// from, which must equal the current durable end; the chunk is parsed and
// CRC-verified wholesale before a byte lands. It returns the parsed records
// so a replication follower can watch for commits and catalog changes
// without re-reading the log. Ordinary writers never call this.
func (db *Database) AppendRawWAL(from wal.LSN, data []byte) ([]wal.Record, error) {
	if db.wal == nil {
		return nil, fmt.Errorf("spatialjoin: AppendRawWAL requires Config.WAL")
	}
	return db.wal.AppendRaw(from, data)
}

// RetainWAL pins log truncation: checkpoints will not reclaim records at
// or above lsn until the pin moves or clears (lsn 0). A replication source
// holds the pin at its log reader's position so a checkpoint between two
// delta requests cannot truncate records the reader still needs. No-op
// without a WAL.
func (db *Database) RetainWAL(lsn wal.LSN) {
	if db.wal != nil {
		db.wal.Retain(lsn)
	}
}

// reopenCollection rebuilds one collection from its recovered files in one
// heap scan: the scan that reassigns tuple IDs in heap order also inserts
// each shape into a fresh R-tree under its ID. Heap order is insertion order
// for sequentially grown collections, so the tree is the one the inserts
// built. The index file is reattached, never read back.
func (db *Database) reopenCollection(nc wal.NewCollection) error {
	if _, dup := db.collections[nc.Name]; dup {
		return nil
	}
	sch, err := collectionSchema()
	if err != nil {
		return err
	}
	index, err := rtree.New(db.cfg.IndexOptions)
	if err != nil {
		return err
	}
	rel, err := relation.Open(db.pool, nc.Name, sch, nc.HeapFile, db.cfg.FillFactor,
		func(id int, t relation.Tuple) error {
			shape, err := sch.SpatialValue(t, 1)
			if err != nil {
				return err
			}
			index.Insert(shape, id)
			return nil
		})
	if err != nil {
		return err
	}
	table, err := join.NewTable(rel, 1, db.pool)
	if err != nil {
		return err
	}
	indexFile, err := storage.OpenHeapFile(db.pool, nc.IndexFile, db.cfg.FillFactor)
	if err != nil {
		return err
	}
	db.collections[nc.Name] = &Collection{
		db: db, name: nc.Name, rel: rel, table: table, index: index, indexFile: indexFile,
	}
	return nil
}

// reopenJoinIndex rebuilds one join index by replaying its recovered pair
// file into a fresh B+-tree (Add de-duplicates, so the file needs no
// compaction discipline).
func (db *Database) reopenJoinIndex(nj wal.NewJoinIndex) error {
	r, ok := db.collections[nj.R]
	if !ok {
		return fmt.Errorf("collection %q not recovered", nj.R)
	}
	s, ok := db.collections[nj.S]
	if !ok {
		return fmt.Errorf("collection %q not recovered", nj.S)
	}
	op, err := pred.ParseName(nj.Operator)
	if err != nil {
		return err
	}
	if _, dup := db.joinIndices[joinIndexKey(r, s, op)]; dup {
		return nil
	}
	ix, err := joinindex.New(db.cfg.JoinIndexOrder)
	if err != nil {
		return err
	}
	file, err := storage.OpenHeapFile(db.pool, nj.PairFile, db.cfg.FillFactor)
	if err != nil {
		return err
	}
	var addErr error
	if err := file.Scan(func(_ storage.RID, rec []byte) bool {
		rid, sid, err := decodePair(rec)
		if err != nil {
			addErr = err
			return false
		}
		if _, err := ix.Add(rid, sid); err != nil {
			addErr = err
			return false
		}
		return true
	}); err != nil {
		return err
	}
	if addErr != nil {
		return addErr
	}
	db.joinIndices[joinIndexKey(r, s, op)] = &JoinIndex{
		r: r, s: s, op: op, ix: ix, file: file,
	}
	return nil
}
